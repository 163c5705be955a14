"""Deformation-type catalog: named lattice data bundles (Gram matrix,
top-intersection constant, wall norm set) with exact structural validation.

Gram matrices for named types are configuration data carrying a mandatory
provenance string; the loader validates structure (symmetry, signature,
evenness) but cannot certify geometric origin.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Any, Iterable, Sequence

from .enumeration import NormTargetSet
from .exactlinalg import Rational, det_bareiss, inertia, is_symmetric
from .lattice import BBFLattice, LatticeError, fujiki_product


class CatalogError(LatticeError):
    pass


ENTRY_KEYS = ("name", "b2", "gram", "fujiki_c", "half_dim_n", "mbm_norms", "even", "provenance")


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    informational: bool = False


@dataclass(frozen=True)
class DeformationTypeSpec:
    """One catalog entry, immutable and fully validated at construction."""

    name: str
    b2: int
    gram: tuple[tuple[int, ...], ...]
    fujiki_c: int
    half_dim_n: int
    mbm_norms: NormTargetSet
    even: bool
    provenance: str

    def lattice(self) -> BBFLattice:
        return BBFLattice(self.gram)

    def fujiki_top(self, v: Sequence[Rational]) -> Rational:
        """Top self-intersection c * q(v, v)^n of a degree-2 class."""
        return fujiki_product(self.fujiki_c, self.half_dim_n, self.lattice().q(v))

    def to_dict(self) -> dict[str, Any]:
        return {
            "name": self.name,
            "b2": self.b2,
            "gram": [list(row) for row in self.gram],
            "fujiki_c": self.fujiki_c,
            "half_dim_n": self.half_dim_n,
            "mbm_norms": list(self.mbm_norms.norms),
            "even": self.even,
            "provenance": self.provenance,
        }


def validate_entry(data: dict[str, Any] | DeformationTypeSpec) -> list[CheckResult]:
    """Run every structural invariant as a separate named check.

    Pure report: nothing raises, failures are entries.  The unimodularity
    check is informational only (recorded, never failing)."""
    if isinstance(data, DeformationTypeSpec):
        data = data.to_dict()
    checks: list[CheckResult] = []

    def check(name: str, passed: bool, detail: str, info: bool = False) -> bool:
        checks.append(CheckResult(name=name, passed=passed or info, detail=detail, informational=info))
        return passed

    missing = [k for k in ENTRY_KEYS if k not in data]
    if not check("schema", not missing, "missing keys: %s" % (missing,) if missing else "all keys present"):
        return checks

    b2 = data["b2"]
    gram = data["gram"]
    ok_shape = (
        isinstance(b2, int)
        and b2 > 0
        and isinstance(gram, (list, tuple))
        and len(gram) == b2
        and all(isinstance(r, (list, tuple)) and len(r) == b2 for r in gram)
        and all(isinstance(x, int) for r in gram for x in r)
    )
    if not check("square", ok_shape, "gram must be a b2 x b2 integer matrix (b2 = %s)" % (b2,)):
        return checks

    rows = [list(map(int, r)) for r in gram]
    if check("symmetric", is_symmetric(rows), "gram[i][j] == gram[j][i]"):
        det = det_bareiss(rows)
        if check("nondegenerate", det != 0, "det = %d" % det):
            p, nn, _ = inertia(rows)
            check(
                "signature",
                (p, nn) == (3, b2 - 3),
                "inertia (%d, %d); full lattices must be (3, b2-3) = (3, %d)" % (p, nn, b2 - 3),
            )
            check(
                "unimodular",
                abs(det) == 1,
                "|det| = %d (informational only)" % abs(det),
                info=True,
            )

    check(
        "fujiki-positive",
        isinstance(data["fujiki_c"], int) and data["fujiki_c"] > 0,
        "fujiki_c = %s must be a positive integer" % (data["fujiki_c"],),
    )
    check(
        "half-dim-positive",
        isinstance(data["half_dim_n"], int) and data["half_dim_n"] > 0,
        "half_dim_n = %s must be a positive integer" % (data["half_dim_n"],),
    )
    norms = data["mbm_norms"]
    norms_ok = (
        isinstance(norms, (list, tuple))
        and len(norms) > 0
        and all(isinstance(t, int) and t < 0 for t in norms)
    )
    check("norms-negative", norms_ok, "mbm_norms = %s must be non-empty, all negative" % (norms,))
    if ok_shape and data.get("even"):
        odd = [i for i in range(b2) if rows[i][i] % 2]
        check(
            "evenness",
            not odd,
            "declared even but diagonal entries at %s are odd" % (odd,) if odd else "all diagonal entries even",
        )
    return checks


def load_entry(data: dict[str, Any]) -> DeformationTypeSpec:
    """Build a validated entry; failures name the violated invariant."""
    checks = validate_entry(data)
    failures = [c for c in checks if not c.passed]
    if failures:
        raise CatalogError(
            "catalog entry %r rejected: %s"
            % (data.get("name", "?"), "; ".join("%s (%s)" % (c.name, c.detail) for c in failures))
        )
    return DeformationTypeSpec(
        name=str(data["name"]),
        b2=int(data["b2"]),
        gram=tuple(tuple(int(x) for x in row) for row in data["gram"]),
        fujiki_c=int(data["fujiki_c"]),
        half_dim_n=int(data["half_dim_n"]),
        mbm_norms=NormTargetSet(data["mbm_norms"]),
        even=bool(data["even"]),
        provenance=str(data["provenance"]),
    )


def load_catalog(source: str | Path | Iterable[dict[str, Any]]) -> dict[str, DeformationTypeSpec]:
    """Load a catalog document: a Path is read as a JSON file, a str is the
    JSON text itself, anything else is an already-parsed list of entries.
    Returns an ordered name -> entry mapping."""
    if isinstance(source, (str, Path)):
        text = source.read_text() if isinstance(source, Path) else source
        try:
            parsed = json.loads(text)
        except json.JSONDecodeError as exc:
            raise CatalogError("catalog is not valid JSON: %s" % exc) from exc
    else:
        parsed = list(source)
    if not isinstance(parsed, list):
        raise CatalogError("catalog document must be a top-level list of entries")
    out: dict[str, DeformationTypeSpec] = {}
    for item in parsed:
        if not isinstance(item, dict):
            raise CatalogError("catalog entries must be objects, got %r" % (type(item).__name__,))
        entry = load_entry(item)
        if entry.name in out:
            raise CatalogError("duplicate catalog entry name %r" % entry.name)
        out[entry.name] = entry
    return out


def builtin_catalog() -> dict[str, DeformationTypeSpec]:
    """The bundled catalog: the K3 lattice plus synthetic test entries."""
    text = resources.files("bbf").joinpath("data/catalog.json").read_text()
    return load_catalog(text)


def serialize_catalog(entries: Iterable[DeformationTypeSpec]) -> str:
    return json.dumps([e.to_dict() for e in entries], indent=1)
