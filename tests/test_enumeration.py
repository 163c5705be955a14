import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bbf.enumeration import (
    NormTargetSet,
    OnWallError,
    WallReport,
    chamber_membership,
    enumerate_vectors_of_norm,
    mbm_candidates_in_complement,
    same_kahler_chamber,
    separating_walls,
    wall_classes_through,
    walls_in_sublattice,
)
from bbf.exactlinalg import content, det_bareiss, sign_normalize
from bbf.lattice import DimensionMismatch, InvariantViolation, SignatureError, diagonal_matrix

E1F1 = (1, 1, 0, 0, 0, 0)
E2F2 = (0, 0, 1, 1, 0, 0)
E3F3 = (0, 0, 0, 0, 1, 1)


def random_negative_definite(rng, max_rank=4, max_entry=10):
    """Negative-definite integer Gram with bounded entries: -A A^T for a
    random triangular A, rejected until the bound holds."""
    while True:
        n = rng.randint(1, max_rank)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = rng.choice((1, 1, 2))
            for j in range(i):
                a[i][j] = rng.randint(-1, 1)
        g = [
            [-sum(a[i][k] * a[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        if max(abs(x) for row in g for x in row) <= max_entry:
            return g


def box_oracle(gram, targets):
    """Naive box search: per-coordinate bounds from the adjugate diagonal of
    the flipped form; completely independent of the production recursion."""
    n = len(gram)
    p = [[-x for x in row] for row in gram]
    det = det_bareiss(p)
    bounds = []
    biggest = max(-t for t in targets)
    for i in range(n):
        minor = [[p[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
        cof = det_bareiss(minor) if n > 1 else 1
        limit = Fraction(biggest) * Fraction(cof, det)
        b = 0
        while (b + 1) ** 2 <= limit:
            b += 1
        bounds.append(b)
    table = {t: [] for t in targets}
    for x in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if not any(x):
            continue
        norm = sum(gram[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if norm in table:
            table[norm].append(x)
    return {t: sorted(v) for t, v in table.items()}


class TestNormTargetSet:
    def test_validation(self):
        with pytest.raises(InvariantViolation):
            NormTargetSet([])
        with pytest.raises(InvariantViolation):
            NormTargetSet([-2, 2])
        s = NormTargetSet([-4, -2, -2])
        assert s.norms == (-4, -2)
        assert s.max_abs == 4

    def test_coerce(self):
        s = NormTargetSet([-2])
        assert NormTargetSet.coerce(s) is s
        assert NormTargetSet.coerce([-2]).norms == (-2,)


class TestEnumerateVectorsOfNorm:
    def test_spec_examples(self):
        assert enumerate_vectors_of_norm(diagonal_matrix([-2, -2]), -2) == [
            (-1, 0), (0, -1), (0, 1), (1, 0),
        ]
        assert enumerate_vectors_of_norm(diagonal_matrix([-2, -2]), -6) == []
        assert enumerate_vectors_of_norm(diagonal_matrix([-4, -4, -4]), -2) == []

    def test_rejects_indefinite(self):
        with pytest.raises(SignatureError):
            enumerate_vectors_of_norm([[0, 1], [1, 0]], -2)
        with pytest.raises(InvariantViolation):
            enumerate_vectors_of_norm(diagonal_matrix([-2]), 2)

    def test_rejects_non_integer_gram(self):
        # -5/2 must not be truncated to -2, which would return (+-1,) of
        # norm -5/2 for target -2
        with pytest.raises(TypeError):
            enumerate_vectors_of_norm([[Fraction(-5, 2)]], -2)

    def test_lexicographic_order(self):
        rng = random.Random(1)
        g = random_negative_definite(rng)
        out = enumerate_vectors_of_norm(g, -2)
        assert out == sorted(out)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10**6))
    def test_oracle_equivalence(self, seed):
        rng = random.Random(seed)
        g = random_negative_definite(rng)
        targets = [-2, -4, -6]
        expect = box_oracle(g, targets)
        for t in targets:
            assert enumerate_vectors_of_norm(g, t) == expect[t]

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_sign_symmetry(self, seed):
        rng = random.Random(seed)
        g = random_negative_definite(rng)
        out = set(enumerate_vectors_of_norm(g, -2))
        assert out == {tuple(-x for x in z) for z in out}


class TestMbmInComplement:
    def test_unit_norm_triple_rejected(self, lat_u3):
        walls = mbm_candidates_in_complement(lat_u3, [E1F1, E2F2, E3F3], [-2])
        assert [w.wall_class for w in walls] == [
            (0, 0, 0, 0, 1, -1), (0, 0, 1, -1, 0, 0), (1, -1, 0, 0, 0, 0),
        ]
        assert all(w.norm == -2 for w in walls)
        assert all(content(w.wall_class) == 1 for w in walls)

    def test_doubled_triple_accepted(self, lat_u3):
        walls = mbm_candidates_in_complement(
            lat_u3,
            [(1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)],
            [-2],
        )
        assert walls == []

    def test_wrong_dimension_rejected(self, lat_u3):
        with pytest.raises(SignatureError) as err:
            mbm_candidates_in_complement(lat_u3, [E1F1], [-2])
        assert "(3, 3)" in str(err.value)

    def test_non_positive_subspace_rejected(self, lat_u3):
        with pytest.raises(InvariantViolation):
            mbm_candidates_in_complement(
                lat_u3, [(1, -1, 0, 0, 0, 0), E2F2, E3F3], [-2]
            )

    def test_wrong_length_rows_rejected(self, lat_u3):
        with pytest.raises(DimensionMismatch):
            mbm_candidates_in_complement(lat_u3, [(1, 2), (0, 1), (1, 1)], [-2])

    def test_imprimitive_hits_are_dropped(self, lat_u3):
        # the complement here is diag(-2,-2,-2); every norm -8 solution is
        # twice a primitive class, so the primitive-only contract returns
        # nothing for {-8} alone
        subspace = [E1F1, E2F2, E3F3]
        assert mbm_candidates_in_complement(lat_u3, subspace, [-8]) == []
        mixed = mbm_candidates_in_complement(lat_u3, subspace, [-8, -2])
        assert {(w.wall_class, w.norm) for w in mixed} == {
            ((1, -1, 0, 0, 0, 0), -2),
            ((0, 0, 1, -1, 0, 0), -2),
            ((0, 0, 0, 0, 1, -1), -2),
        }


class TestWallsInSublattice:
    def test_primitive_one_per_sign_pair(self, lat_u3):
        # rows of a saturated basis of the complement of E1F1, E2F2, E3F3
        basis = [(1, -1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0), (0, 0, 0, 0, 1, -1)]
        walls = walls_in_sublattice(lat_u3.gram, basis, NormTargetSet([-2, -4, -8]))
        # coefficient vectors: norm -2 is one unit vector, -4 two of them
        # with signs, -8 only twice a unit vector (imprimitive, dropped)
        expected = {((1, -1, 0, 0, 0, 0), -2), ((0, 0, 1, -1, 0, 0), -2), ((0, 0, 0, 0, 1, -1), -2)}
        expected |= {
            (sign_normalize(tuple(a + s * b for a, b in zip(basis[i], basis[j]))), -4)
            for i, j in ((0, 1), (0, 2), (1, 2))
            for s in (1, -1)
        }
        assert [(w.wall_class, w.norm) for w in walls] == sorted(expected)
        assert walls_in_sublattice(lat_u3.gram, [], NormTargetSet([-2])) == []

    @pytest.mark.parametrize(
        "basis",
        [
            [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0)],   # indefinite: a copy of U
            [(1, 0, 0, 0, 0, 0)],                       # degenerate, rank 1
            [(1, 0, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)],   # degenerate, rank 2
            [(1, 1, 0, 0, 0, 0), (1, -1, 0, 0, 0, 0)],  # indefinite, diagonal
            [(1, 1, 0, 0, 0, 0)],                       # positive definite
        ],
    )
    def test_non_negative_definite_raises_signature_error(self, lat_u3, basis):
        with pytest.raises(SignatureError):
            walls_in_sublattice(lat_u3.gram, basis, NormTargetSet([-2]))


class TestWallsThrough:
    def test_spec_examples(self, lat_hyp):
        walls = wall_classes_through(lat_hyp, (1, 1, 0), [-2])
        assert [w.wall_class for w in walls] == [(0, 0, 1), (1, -1, 0)]
        assert wall_classes_through(lat_hyp, (3, 4, 1), [-2]) == []
        with pytest.raises(InvariantViolation):
            wall_classes_through(lat_hyp, (1, 1, 1), [-2])

    def test_wrong_signature(self, lat_u3):
        with pytest.raises(SignatureError):
            wall_classes_through(lat_u3, E1F1, [-2])

    def test_rational_and_scaled_input(self, lat_hyp):
        base = wall_classes_through(lat_hyp, (1, 1, 0), [-2])
        assert wall_classes_through(lat_hyp, (3, 3, 0), [-2]) == base
        assert wall_classes_through(lat_hyp, (Fraction(1, 2), Fraction(1, 2), 0), [-2]) == base

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_box_oracle_on_random_vectors(self, lat_hyp, seed):
        rng = random.Random(seed)
        while True:
            h = tuple(rng.randint(-6, 6) for _ in range(3))
            if lat_hyp.q(h) > 0:
                break
        got = {(w.wall_class, w.norm) for w in wall_classes_through(lat_hyp, h, [-2, -4])}
        expect = set()
        for z in itertools.product(range(-14, 15), repeat=3):
            if not any(z) or content(z) != 1:
                continue
            if lat_hyp.q(z) in (-2, -4) and lat_hyp.inner(z, h) == 0:
                expect.add((sign_normalize(z), lat_hyp.q(z)))
        assert got == expect


class TestChamberMembership:
    def test_spec_examples(self, lat_hyp):
        assert chamber_membership(lat_hyp, (3, 4, 1), [-2]).interior
        on = chamber_membership(lat_hyp, (1, 1, 0), [-2])
        assert not on.interior
        assert [w.wall_class for w in on.walls] == [(0, 0, 1), (1, -1, 0)]
        on2 = chamber_membership(lat_hyp, (1, 2, 1), [-2])
        assert (1, 0, 1) in [w.wall_class for w in on2.walls]
        assert [w.wall_class for w in on2.walls] == [(0, 2, 1), (1, 0, 1)]


def brute_separating(lat, u, v, norms, box):
    out = {}
    for z in itertools.product(range(-box, box + 1), repeat=lat.rank):
        if not any(z):
            continue
        if lat.q(z) not in norms:
            continue
        if content(z) != 1:
            continue
        qzu, qzv = lat.inner(z, u), lat.inner(z, v)
        if qzu * qzv < 0:
            t = Fraction(qzu) / (qzu - qzv)
            out[sign_normalize(z)] = t
    return out


class TestSeparatingWalls:
    def test_spec_example_with_oracle(self, lat_hyp):
        u, v = (3, 4, 1), (4, 3, -1)
        walls = separating_walls(lat_hyp, u, v, [-2])
        got = {w.wall_class: w.crossing_parameter for w in walls}
        assert set(got) >= {(0, 0, 1), (1, -1, 0)}
        assert got == brute_separating(lat_hyp, u, v, (-2,), box=12)
        assert all(0 < w.crossing_parameter < 1 for w in walls)
        assert walls == sorted(walls, key=lambda w: (w.crossing_parameter, w.wall_class))

    def test_identical_endpoints(self, lat_hyp):
        assert separating_walls(lat_hyp, (3, 4, 1), (3, 4, 1), [-2]) == []

    def test_endpoint_on_wall(self, lat_hyp):
        with pytest.raises(OnWallError) as err:
            separating_walls(lat_hyp, (3, 4, 1), (1, 1, 0), [-2])
        assert {w.wall_class for w in err.value.walls} == {(0, 0, 1), (1, -1, 0)}

    def test_non_positive_endpoint(self, lat_hyp):
        with pytest.raises(InvariantViolation):
            separating_walls(lat_hyp, (3, 4, 1), (1, -1, 0), [-2])

    def test_opposite_cone_components(self, lat_hyp):
        with pytest.raises(InvariantViolation):
            separating_walls(lat_hyp, (3, 4, 1), (-3, -4, -1), [-2])

    def _interior(self, lat, rng, norms):
        while True:
            h = tuple(rng.randint(-9, 9) for _ in range(lat.rank))
            if lat.q(h) <= 0 or h[0] + h[1] < 0:
                continue
            if not wall_classes_through(lat, h, norms):
                return h

    @settings(max_examples=25, deadline=None)
    @given(st.integers(0, 10**6))
    def test_oracle_on_random_pairs(self, lat_hyp, seed):
        rng = random.Random(seed)
        norms = NormTargetSet([-2])
        u = self._interior(lat_hyp, rng, norms)
        while True:
            v = self._interior(lat_hyp, rng, norms)
            if lat_hyp.inner(u, v) > 0:
                break
        walls = separating_walls(lat_hyp, u, v, norms)
        got = {w.wall_class: w.crossing_parameter for w in walls}
        assert got == brute_separating(lat_hyp, u, v, norms.norms, box=24)

    @settings(max_examples=20, deadline=None)
    @given(st.integers(0, 10**6))
    def test_symmetry_and_triangle(self, lat_hyp, seed):
        rng = random.Random(seed)
        norms = NormTargetSet([-2])
        pts = []
        while len(pts) < 3:
            h = self._interior(lat_hyp, rng, norms)
            if all(lat_hyp.inner(h, p) > 0 for p in pts):
                pts.append(h)
        u, v, w = pts
        suv = {r.wall_class for r in separating_walls(lat_hyp, u, v, norms)}
        svw = {r.wall_class for r in separating_walls(lat_hyp, v, w, norms)}
        suw = {r.wall_class for r in separating_walls(lat_hyp, u, w, norms)}
        assert suv ^ svw == suw
        back = separating_walls(lat_hyp, v, u, norms)
        assert {r.wall_class for r in back} == suv
        forward_t = {r.wall_class: r.crossing_parameter for r in separating_walls(lat_hyp, u, v, norms)}
        for r in back:
            assert r.crossing_parameter == 1 - forward_t[r.wall_class]

    def test_mixed_norm_targets_against_oracle(self, lat_hyp):
        u, v = (3, 4, 1), (4, 3, -1)
        norms = (-2, -4)
        walls = separating_walls(lat_hyp, u, v, norms)
        got = {w.wall_class: w.crossing_parameter for w in walls}
        assert got == brute_separating(lat_hyp, u, v, norms, box=16)
        assert {w.norm for w in walls} <= {-2, -4}

    def test_scaling_invariance(self, lat_hyp):
        u, v = (3, 4, 1), (4, 3, -1)
        base = {w.wall_class for w in separating_walls(lat_hyp, u, v, [-2])}
        su = tuple(Fraction(7, 3) * x for x in u)
        sv = tuple(5 * x for x in v)
        scaled = separating_walls(lat_hyp, su, sv, [-2])
        assert base == {w.wall_class for w in scaled}
        # the crossing parameter belongs to the segment between the given
        # (rational) endpoints, not to their rescaled integral models
        got = {w.wall_class: w.crossing_parameter for w in scaled}
        assert got == brute_separating(lat_hyp, su, sv, (-2,), box=12)


class TestSameChamber:
    def test_spec_examples(self, lat_hyp):
        assert same_kahler_chamber(lat_hyp, (3, 4, 1), (3, 4, 1), [-2])
        assert not same_kahler_chamber(lat_hyp, (3, 4, 1), (4, 3, -1), [-2])
        assert same_kahler_chamber(lat_hyp, (3, 4, 1), (6, 8, 2), [-2])
        assert same_kahler_chamber(
            lat_hyp, (3, 4, 1), tuple(Fraction(2, 5) * x for x in (3, 4, 1)), [-2]
        )

    def test_equivalence_relation(self, lat_hyp):
        rng = random.Random(101)
        norms = NormTargetSet([-2])
        pts = []
        while len(pts) < 6:
            h = tuple(rng.randint(-9, 9) for _ in range(3))
            if lat_hyp.q(h) <= 0 or h[0] + h[1] < 0:
                continue
            if wall_classes_through(lat_hyp, h, norms):
                continue
            if all(lat_hyp.inner(h, p) > 0 for p in pts):
                pts.append(h)
        for a in pts:
            assert same_kahler_chamber(lat_hyp, a, a, norms)
        for a, b in itertools.combinations(pts, 2):
            assert same_kahler_chamber(lat_hyp, a, b, norms) == same_kahler_chamber(
                lat_hyp, b, a, norms
            )
        for a, b, c in itertools.permutations(pts, 3):
            if same_kahler_chamber(lat_hyp, a, b, norms) and same_kahler_chamber(
                lat_hyp, b, c, norms
            ):
                assert same_kahler_chamber(lat_hyp, a, c, norms)


def test_wall_report_ordering():
    a = WallReport(wall_class=(0, 1), norm=-2, crossing_parameter=Fraction(1, 3))
    b = WallReport(wall_class=(1, 0), norm=-2, crossing_parameter=Fraction(1, 4))
    assert a < b
