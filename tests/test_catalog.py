import json
import random
from fractions import Fraction

import pytest

from bbf.catalog import (
    CatalogError,
    builtin_catalog,
    load_catalog,
    load_entry,
    serialize_catalog,
    validate_entry,
)
from bbf.exactlinalg import det_bareiss


@pytest.fixture(scope="module")
def catalog():
    return builtin_catalog()


class TestBuiltinCatalog:
    def test_entries_present(self, catalog):
        assert {"K3", "toy-U3", "toy-n2c3"} <= set(catalog)

    def test_every_entry_valid(self, catalog):
        for spec in catalog.values():
            failures = [c for c in validate_entry(spec) if not c.passed]
            assert not failures, failures

    def test_k3_structure(self, catalog):
        k3 = catalog["K3"]
        lat = k3.lattice()
        assert k3.b2 == 22
        assert lat.signature() == (3, 19)
        assert det_bareiss(lat.gram) == -1
        assert k3.even and k3.fujiki_c == 1 and k3.half_dim_n == 1
        assert k3.mbm_norms.norms == (-2,)
        unimod = next(c for c in validate_entry(k3) if c.name == "unimodular")
        assert unimod.informational and unimod.passed

    def test_validation_diagonalizes_once(self, catalog, kernel_calls):
        # nondegeneracy, signature and the determinant all come from the
        # lattice's one diagonalization
        calls = kernel_calls("diagonalize_symmetric", "det_bareiss", "inertia")
        assert all(c.passed for c in validate_entry(catalog["K3"]))
        assert calls == {"diagonalize_symmetric": 1, "det_bareiss": 0, "inertia": 0}

    def test_toy_u3(self, catalog):
        toy = catalog["toy-U3"]
        assert toy.b2 == 6
        assert toy.lattice().signature() == (3, 3)

    def test_fujiki_top(self, catalog):
        rng = random.Random(5)
        k3 = catalog["K3"]
        lat = k3.lattice()
        for _ in range(30):
            v = [rng.randint(-4, 4) for _ in range(22)]
            assert k3.fujiki_top(v) == lat.q(v)
        n2 = catalog["toy-n2c3"]
        lat2 = n2.lattice()
        for _ in range(30):
            v = [rng.randint(-4, 4) for _ in range(6)]
            assert n2.fujiki_top(v) == 3 * lat2.q(v) ** 2
        assert n2.fujiki_top([0] * 6) == 0
        # a float coordinate counts as the rational it holds exactly
        v = (0.1, 2.5, 0.3, 0.7, 1.1, 0.2)
        q_exact = sum(2 * Fraction(v[i]) * Fraction(v[i + 1]) for i in (0, 2, 4))
        assert n2.fujiki_top(v) == 3 * q_exact ** 2


class TestRoundTrip:
    def test_serialize_load_identity(self, catalog):
        text = serialize_catalog(catalog.values())
        again = load_catalog(text)
        assert list(again) == list(catalog)
        for name in catalog:
            assert again[name].to_dict() == catalog[name].to_dict()
            assert again[name].gram == catalog[name].gram

    def test_load_from_path(self, catalog, tmp_path):
        path = tmp_path / "cat.json"
        path.write_text(serialize_catalog([catalog["toy-U3"]]))
        again = load_catalog(path)
        assert set(again) == {"toy-U3"}


class TestValidation:
    def _base(self, catalog):
        return dict(catalog["toy-U3"].to_dict())

    def test_positive_norm_rejected(self, catalog):
        bad = self._base(catalog)
        bad["mbm_norms"] = [2]
        assert [c.name for c in validate_entry(bad) if not c.passed] == ["norms-negative"]
        with pytest.raises(CatalogError) as err:
            load_entry(bad)
        assert "norms-negative" in str(err.value)

    def test_asymmetric_fails_symmetric_only(self, catalog):
        bad = self._base(catalog)
        bad["gram"] = [row[:] for row in bad["gram"]]
        bad["gram"][0][1] = 9
        assert [c.name for c in validate_entry(bad) if not c.passed] == ["symmetric"]

    def test_wrong_signature(self, catalog):
        bad = self._base(catalog)
        bad["b2"] = 3
        bad["gram"] = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
        assert [c.name for c in validate_entry(bad) if not c.passed] == ["signature"]

    def test_degenerate(self, catalog):
        bad = self._base(catalog)
        bad["b2"] = 2
        bad["gram"] = [[2, 2], [2, 2]]
        names = [c.name for c in validate_entry(bad) if not c.passed]
        assert names == ["nondegenerate"]

    def test_odd_diagonal_when_declared_even(self, catalog):
        bad = self._base(catalog)
        bad["gram"] = [row[:] for row in bad["gram"]]
        bad["gram"][0][0] = 1
        names = [c.name for c in validate_entry(bad) if not c.passed]
        assert "evenness" in names

    def test_bad_fujiki_constant(self, catalog):
        bad = self._base(catalog)
        bad["fujiki_c"] = 0
        assert [c.name for c in validate_entry(bad) if not c.passed] == ["fujiki-positive"]

    def test_booleans_are_not_integers(self, catalog):
        # JSON true is not the integer 1 in any integer field
        for key, value, check in (
            ("b2", True, "square"),
            ("fujiki_c", True, "fujiki-positive"),
            ("half_dim_n", True, "half-dim-positive"),
            ("mbm_norms", [-2, False], "norms-negative"),
        ):
            bad = self._base(catalog)
            bad[key] = value
            assert [c.name for c in validate_entry(bad) if not c.passed] == [check]
            with pytest.raises(CatalogError):
                load_entry(bad)
        bad = self._base(catalog)
        bad["b2"] = 2
        bad["gram"] = [[False, True], [True, False]]
        assert [c.name for c in validate_entry(bad) if not c.passed] == ["square"]

    def test_even_must_be_a_boolean(self, catalog):
        for value in ("false", "true", 1, 0, None):
            bad = self._base(catalog)
            bad["even"] = value
            assert [c.name for c in validate_entry(bad) if not c.passed] == ["evenness"]
            with pytest.raises(CatalogError):
                load_entry(bad)
        odd = self._base(catalog)
        odd["b2"] = 4
        odd["gram"] = [[1 if i == j else 0 for j in range(4)] for i in range(3)] + [[0, 0, 0, -1]]
        odd["even"] = False
        assert load_entry(odd).even is False

    def test_missing_key(self, catalog):
        bad = self._base(catalog)
        del bad["provenance"]
        checks = validate_entry(bad)
        assert [c.name for c in checks if not c.passed] == ["schema"]

    def test_duplicate_names_rejected(self, catalog):
        doc = [catalog["toy-U3"].to_dict(), catalog["toy-U3"].to_dict()]
        with pytest.raises(CatalogError):
            load_catalog(json.dumps(doc))

    def test_non_list_document(self):
        with pytest.raises(CatalogError):
            load_catalog(json.dumps({"name": "x"}))
        with pytest.raises(CatalogError):
            load_catalog("not json at all {")
