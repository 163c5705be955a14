"""Command-line front end.

Every subcommand wraps one library operation and prints a single JSON
document on stdout, errors included.  All numeric payload values
are exact: integers and rationals are rendered as strings like "2" or
"-1/3" so nothing is ever rounded.  Exit codes: 0 ok, 1 domain error,
2 usage error.
"""
from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import asdict, dataclass
from fractions import Fraction
from pathlib import Path
from typing import Any, Sequence

from .catalog import CatalogError, DeformationTypeSpec, load_catalog, read_catalog_document, validate_entry
from .enumeration import (
    NormTargetSet,
    chamber_membership,
    enumerate_vectors_of_norm,
    mbm_candidates_in_complement,
    same_kahler_chamber,
    separating_walls,
    wall_classes_through,
)
from .exactlinalg import Rational
from .lattice import BBFLattice, LatticeError
from .periods import (
    HKTripleClasses,
    TwistorDirection,
    fiber_connectivity_experiment,
    forgetful_map,
    hk_equivalence,
    in_hk_period_image,
    in_symplectic_period_image,
    sample_fiber,
    twistor_member,
)

CATALOG_ENV = "BBF_CATALOG"


class UsageError(Exception):
    pass


@dataclass
class CommandResult:
    status: str
    payload: dict[str, Any] | None = None
    error: dict[str, Any] | None = None

    @property
    def exit_code(self) -> int:
        if self.status == "ok":
            return 0
        return 2 if self.error and self.error.get("type") == "usage" else 1


# -- exact formatting / parsing ------------------------------------------------

def rat_str(x: Rational) -> str:
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else "%d/%d" % (f.numerator, f.denominator)


def vec_str(v: Sequence[Rational]) -> list[str]:
    return [rat_str(x) for x in v]


def mat_str(rows: Sequence[Sequence[Rational]]) -> list[list[str]]:
    return [vec_str(r) for r in rows]


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip())
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError("cannot parse %r as a rational" % text) from exc


def _fields(text: str, sep: str, what: str) -> list[str]:
    """The sep-separated fields of text; UsageError for an empty field
    (an empty text included), which would otherwise shift every later one."""
    fields = text.split(sep)
    if any(f.strip() == "" for f in fields):
        raise UsageError("empty field in %s %r" % (what, text))
    return fields


def parse_vector(text: str) -> tuple[Rational, ...]:
    out = []
    for p in _fields(text, ",", "vector"):
        f = parse_rational(p)
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


def parse_matrix(text: str) -> list[tuple[Rational, ...]]:
    parsed = [parse_vector(r) for r in _fields(text, ";", "matrix")]
    if len({len(r) for r in parsed}) != 1:
        raise UsageError("matrix rows have inconsistent lengths")
    return parsed


def parse_int_matrix(text: str) -> list[list[int]]:
    rows = parse_matrix(text)
    out = []
    for row in rows:
        if any(not isinstance(x, int) for x in row):
            raise UsageError("matrix entries must be integers here")
        out.append([int(x) for x in row])
    return out


def parse_norms(text: str) -> NormTargetSet:
    vals = []
    for p in _fields(text, ",", "norm list"):
        f = parse_rational(p)
        if f.denominator != 1:
            raise UsageError("norm targets must be integers, got %r" % p)
        vals.append(int(f))
    return NormTargetSet(vals)


# -- lattice resolution ---------------------------------------------------------

def _catalog_entries(catalog_arg: str | None) -> list[Any]:
    """The raw entries of the catalog file named by --catalog, else by
    $BBF_CATALOG, else of the bundled catalog."""
    path = catalog_arg or os.environ.get(CATALOG_ENV)
    return read_catalog_document(Path(path) if path else None)


def _load_named(catalog_arg: str | None, name: str) -> DeformationTypeSpec:
    cat = load_catalog(_catalog_entries(catalog_arg))
    if name not in cat:
        raise CatalogError("no catalog entry named %r (have: %s)" % (name, sorted(cat)))
    return cat[name]


def resolve_lattice(args) -> tuple[BBFLattice, NormTargetSet | None]:
    """Pick the lattice from --gram or from --catalog/--name; the entry's
    norm set rides along as the default for wall queries."""
    if args.gram and args.name:
        raise UsageError("give either --gram or --name, not both")
    if args.gram:
        return BBFLattice(parse_int_matrix(args.gram)), None
    if args.name:
        entry = _load_named(args.catalog, args.name)
        return entry.lattice(), entry.mbm_norms
    raise UsageError("a lattice is required: pass --gram or --catalog/--name")


def resolve_norms(args, default: NormTargetSet | None) -> NormTargetSet:
    if args.norms:
        return parse_norms(args.norms)
    if default is not None:
        return default
    raise UsageError("--norms is required when the lattice does not come from a catalog entry")


# -- subcommand handlers ---------------------------------------------------------
# handler(args, lattice, norms) -> JSON payload; run() resolves lattice and
# norms from the command's lattice mode (None where it takes none).

def cmd_lattice_info(args, lat, norms) -> dict[str, Any]:
    entry = _load_named(args.catalog, args.name)
    lat = entry.lattice()
    p, n = lat.signature()
    return {
        "name": entry.name,
        "rank": lat.rank,
        "signature": [p, n],
        "det": rat_str(lat.det),
        "even": entry.even,
        "fujiki_c": entry.fujiki_c,
        "half_dim_n": entry.half_dim_n,
        "mbm_norms": [rat_str(t) for t in entry.mbm_norms],
    }


def cmd_signature(args, lat, norms) -> dict[str, Any]:
    p, n = lat.signature()
    return {"signature": [p, n], "rank": lat.rank}


def cmd_complement(args, lat, norms) -> dict[str, Any]:
    comp = lat.orthogonal_complement_integral(parse_matrix(args.subspace))
    return {"basis": mat_str(comp), "rank": len(comp)}


def cmd_enumerate_norm(args, lat, norms) -> dict[str, Any]:
    gram = parse_int_matrix(args.gram)
    f = parse_rational(args.norm)
    if f.denominator != 1:
        raise UsageError("--norm must be an integer")
    vecs = enumerate_vectors_of_norm(gram, int(f))
    return {"vectors": mat_str(vecs), "count": len(vecs)}


def _wall_payload(walls) -> list[dict[str, Any]]:
    out = []
    for w in walls:
        item: dict[str, Any] = {"class": vec_str(w.wall_class), "norm": rat_str(w.norm)}
        if w.crossing_parameter is not None:
            item["t"] = rat_str(w.crossing_parameter)
        out.append(item)
    return out


def _wall_list(walls) -> dict[str, Any]:
    return {"walls": _wall_payload(walls), "count": len(walls)}


def cmd_mbm_in_complement(args, lat, norms) -> dict[str, Any]:
    return _wall_list(mbm_candidates_in_complement(lat, parse_matrix(args.subspace), norms))


def cmd_walls_through(args, lat, norms) -> dict[str, Any]:
    return _wall_list(wall_classes_through(lat, parse_vector(args.vector), norms))


def cmd_separating_walls(args, lat, norms) -> dict[str, Any]:
    return _wall_list(
        separating_walls(lat, parse_vector(getattr(args, "from")), parse_vector(args.to), norms)
    )


def cmd_chamber(args, lat, norms) -> dict[str, Any]:
    result = chamber_membership(lat, parse_vector(args.vector), norms)
    return {
        "membership": "interior" if result.interior else "on-walls",
        "walls": _wall_payload(result.walls),
    }


def cmd_same_chamber(args, lat, norms) -> dict[str, Any]:
    same = same_kahler_chamber(
        lat, parse_vector(args.reference), parse_vector(args.vector), norms
    )
    return {"same_chamber": same}


def cmd_hk_image(args, lat, norms) -> dict[str, Any]:
    result = in_hk_period_image(lat, parse_matrix(args.plane), norms)
    return {
        "in_image": result.in_image,
        "witnesses": [vec_str(w.wall_class) for w in result.witnesses],
    }


def cmd_symp_image(args, lat, norms) -> dict[str, Any]:
    v = parse_vector(args.vector)
    return {"in_image": in_symplectic_period_image(lat, v), "q": rat_str(lat.q(v))}


def _parse_triple(lat: BBFLattice, text: str) -> HKTripleClasses:
    rows = parse_matrix(text)
    if len(rows) != 3:
        raise UsageError("a triple needs exactly 3 rows")
    return HKTripleClasses(lat, rows[0], rows[1], rows[2])


def cmd_twistor(args, lat, norms) -> dict[str, Any]:
    triple = _parse_triple(lat, args.triple)
    d = parse_vector(args.direction)
    if len(d) != 3:
        raise UsageError("--direction needs exactly 3 coordinates")
    fiber = twistor_member(triple, TwistorDirection(*d))
    return {
        "omega": vec_str(fiber.omega),
        "q_omega": rat_str(lat.q(fiber.omega)),
        "plane": mat_str(fiber.plane.basis),
        "forgetful": vec_str(forgetful_map(triple)),
    }


def cmd_hk_equiv(args, lat, norms) -> dict[str, Any]:
    t1 = _parse_triple(lat, args.triple)
    t2 = _parse_triple(lat, args.other)
    return {"equivalent": hk_equivalence(t1, t2)}


def cmd_fiber_sample(args, lat, norms) -> dict[str, Any]:
    samples = sample_fiber(lat, parse_vector(args.vector), args.count, norms, args.seed)
    return {
        "samples": [
            {
                "plane": mat_str(s.point.plane.basis),
                "accepted": s.accepted,
                "witnesses": [vec_str(w.wall_class) for w in s.witnesses],
            }
            for s in samples
        ],
        "accepted_count": sum(1 for s in samples if s.accepted),
    }


def cmd_fiber_connectivity(args, lat, norms) -> dict[str, Any]:
    rep = fiber_connectivity_experiment(
        lat, parse_vector(args.vector), args.pairs, args.steps, norms, args.seed
    )
    return asdict(rep)  # the report's field order is the payload's key order


def cmd_validate_catalog(args, lat, norms) -> dict[str, Any]:
    entries = []
    for item in _catalog_entries(args.catalog):
        checks = [
            {"check": c.name, "passed": c.passed, "detail": c.detail, "informational": c.informational}
            for c in validate_entry(item)
        ]
        name = item.get("name", "?") if isinstance(item, dict) else "?"
        entries.append({"name": name, "checks": checks, "passed": all(c["passed"] for c in checks)})
    return {"entries": entries, "all_passed": all(e["passed"] for e in entries)}


# -- command table ---------------------------------------------------------------
# Lattice modes: the shared flags a command takes.  run() resolves a lattice
# from them when there are any, then a norm set when --norms is among them.
NO_LATTICE = ()
LATTICE = ("--catalog", "--name", "--gram")
LATTICE_NORMS = LATTICE + ("--norms",)

# A command's own flags are all required, except --catalog, which falls back
# to $BBF_CATALOG and then to the bundled catalog.
INT_FLAGS = {"--count", "--pairs", "--steps", "--seed"}
FLAG_HELP = {
    "--catalog": "path to a catalog JSON document",
    "--name": "catalog entry name",
    "--gram": "explicit integer Gram matrix, rows separated by ';'",
    "--norms": "comma-separated negative wall norms, e.g. '-2,-4'",
    "--subspace": "rational rows separated by ';'",
    "--plane": "three rows separated by ';'",
    "--triple": "three rows x;y;z",
    "--direction": "a,b,c (projective, rational)",
}
GROUP_HELP = {"lattice": "catalog lattice utilities"}

# (name, help, lattice mode, own flags, handler), in --help order
COMMANDS = [
    ("lattice info", "rank, signature, determinant of a catalog entry", NO_LATTICE,
     ("--catalog", "--name"), cmd_lattice_info),
    ("signature", "exact inertia of a lattice", LATTICE, (), cmd_signature),
    ("complement", "saturated integral orthogonal complement", LATTICE,
     ("--subspace",), cmd_complement),
    ("enumerate-norm", "all vectors of one negative norm", NO_LATTICE,
     ("--gram", "--norm"), cmd_enumerate_norm),
    ("mbm-in-complement", "wall classes orthogonal to a positive subspace", LATTICE_NORMS,
     ("--subspace",), cmd_mbm_in_complement),
    ("walls-through", "walls containing a positive vector", LATTICE_NORMS,
     ("--vector",), cmd_walls_through),
    ("separating-walls", "walls between two interior positive vectors", LATTICE_NORMS,
     ("--from", "--to"), cmd_separating_walls),
    ("chamber", "interior / on-walls membership", LATTICE_NORMS, ("--vector",), cmd_chamber),
    ("same-chamber", "whether two vectors share a chamber", LATTICE_NORMS,
     ("--reference", "--vector"), cmd_same_chamber),
    ("hk-image", "period-image test for a positive 3-space", LATTICE_NORMS,
     ("--plane",), cmd_hk_image),
    ("symp-image", "period-image test for a single class", LATTICE, ("--vector",), cmd_symp_image),
    ("twistor", "twistor family member of a class triple", LATTICE,
     ("--triple", "--direction"), cmd_twistor),
    ("hk-equiv", "equivalence of two class triples", LATTICE, ("--triple", "--other"), cmd_hk_equiv),
    ("fiber-sample", "sample fiber planes over a positive class", LATTICE_NORMS,
     ("--vector", "--count", "--seed"), cmd_fiber_sample),
    ("fiber-connectivity", "path search between accepted fiber points", LATTICE_NORMS,
     ("--vector", "--pairs", "--steps", "--seed"), cmd_fiber_connectivity),
    ("validate-catalog", "run every invariant check on a catalog", NO_LATTICE,
     ("--catalog",), cmd_validate_catalog),
]


# -- parser ----------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    def error(self, message):  # JSON on stdout even for usage errors
        raise UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(prog="bbf", description=__doc__)
    sub = top.add_subparsers(dest="command", metavar="COMMAND")
    groups: dict[str, Any] = {}
    for name, help_text, mode, own, handler in COMMANDS:
        parent = sub
        if " " in name:  # "lattice info": a subcommand of the "lattice" group
            group, name = name.split(" ")
            if group not in groups:
                groups[group] = sub.add_parser(group, help=GROUP_HELP[group]).add_subparsers(
                    dest="subcommand", metavar="SUBCOMMAND"
                )
            parent = groups[group]
        p = parent.add_parser(name, help=help_text)
        for flag in mode + own:
            p.add_argument(
                flag,
                required=flag in own and flag != "--catalog",
                type=int if flag in INT_FLAGS else None,
                help=FLAG_HELP.get(flag),
            )
        p.set_defaults(handler=handler, lattice_mode=mode)
    return top


def _normalize_argv(argv: Sequence[str]) -> list[str]:
    """Join every value-taking flag with its argument as --flag=value, so
    values with a leading minus (norms, Gram rows) survive argparse."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok.startswith("--") and "=" not in tok and tok != "--help" and i + 1 < len(argv):
            i += 1
            tok += "=" + argv[i]
        out.append(tok)
        i += 1
    return out


def run(argv: Sequence[str]) -> CommandResult:
    """Dispatch one command; never raises for domain or usage problems."""
    parser = build_parser()
    try:
        args = parser.parse_args(_normalize_argv(argv))
        handler = getattr(args, "handler", None)
        if handler is None:
            raise UsageError("a subcommand is required (see --help)")
        lat = norms = None
        if args.lattice_mode:
            lat, default = resolve_lattice(args)
            if "--norms" in args.lattice_mode:
                norms = resolve_norms(args, default)
        payload = handler(args, lat, norms)
        return CommandResult(status="ok", payload=payload)
    except UsageError as exc:
        return CommandResult(status="error", error={"type": "usage", "message": str(exc)})
    except (LatticeError, OSError) as exc:
        return CommandResult(
            status="error", error={"type": type(exc).__name__, "message": str(exc)}
        )


def main(argv: Sequence[str] | None = None) -> int:
    result = run(sys.argv[1:] if argv is None else list(argv))
    if result.status == "ok":
        sys.stdout.write(json.dumps(result.payload, separators=(", ", ": ")) + "\n")
    else:
        sys.stdout.write(json.dumps({"error": result.error}, separators=(", ", ": ")) + "\n")
    return result.exit_code


if __name__ == "__main__":
    sys.exit(main())
