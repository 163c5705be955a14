import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bbf import enumeration
from bbf.enumeration import (
    NormTargetSet,
    OnWallError,
    WallReport,
    _primitive_walls,
    _walls_orthogonal,
    chamber_membership,
    enumerate_vectors_of_norm,
    mbm_candidates_in_complement,
    same_kahler_chamber,
    separating_walls,
    wall_classes_through,
)
from bbf.exactlinalg import clear_denominators, content, det_bareiss, integral_gso, sign_normalize
from bbf.lattice import (
    BBFLattice,
    DimensionMismatch,
    InvariantViolation,
    SignatureError,
    diagonal_matrix,
    direct_sum,
    e8_matrix,
    hyperbolic_plane,
)

from oracles import walls_in_sublattice

E1F1 = (1, 1, 0, 0, 0, 0)
E2F2 = (0, 0, 1, 1, 0, 0)
E3F3 = (0, 0, 0, 0, 1, 1)

HYPERBOLIC = {
    "U+<-2>": direct_sum(hyperbolic_plane(), [[-2]]),
    "U+<-4>": direct_sum(hyperbolic_plane(), [[-4]]),
    "U+<-6>": direct_sum(hyperbolic_plane(), [[-6]]),
    "U+E8(-1)": direct_sum(hyperbolic_plane(), e8_matrix(-1)),
}


def random_positive(lat, rng, rational):
    """A class with q(h,h) > 0: coordinates up to 6, but up to 1 on E8(-1),
    which is mostly negative; divided by a random denominator when
    rational."""
    tail = 6 if lat.rank == 3 else 1
    while True:
        h = [rng.randint(-6, 6), rng.randint(-6, 6)]
        h += [rng.randint(-tail, tail) for _ in range(lat.rank - 2)]
        if lat.q(h) > 0:
            break
    den = rng.randint(2, 6) if rational else 1
    return tuple(Fraction(x, den) for x in h)


def complement_route(lat, h, norms):
    """The walls through h from the saturated h-perp: an independent
    enumeration on a lattice of one rank less."""
    return walls_in_sublattice(lat.gram, lat.orthogonal_complement_integral([h]), NormTargetSet(norms))


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
        assert enumerate_vectors_of_norm([], -2) == []

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


class TestWallsOrthogonal:
    # the penalty-form kernel against the complement route
    def test_row_h_cold_and_warm_on_u_plus_e8(self):
        lat = BBFLattice(HYPERBOLIC["U+E8(-1)"])
        rng = random.Random(12)
        start, hits = None, 0
        for trial in range(16):
            if trial % 2:
                # large entries, for large Gram entries in the reduction
                h = [rng.randint(40, 80), rng.randint(40, 80)] + [rng.randint(-9, 9) for _ in range(8)]
            else:
                h = random_positive(lat, rng, rational=trial % 4 == 2)
            expect = complement_route(lat, h, [-2, -4])
            # the kernel takes integer rows; the public callers clear them
            row = [clear_denominators(h)]
            basis, table = _walls_orthogonal(lat.gram, row, [-2, -4])
            assert _primitive_walls(basis[0], table) == expect
            start, table = _walls_orthogonal(lat.gram, row, [-2, -4], start)
            assert _primitive_walls(start[0], table) == expect
            hits += bool(expect)
        assert hits

    def test_doubling_of_n(self, monkeypatch):
        # a penalty of N = 2 is too weak for these rows; the kernel doubles
        # the bits of N until the reduced rows lie in the complement
        lat = BBFLattice(HYPERBOLIC["U+E8(-1)"])
        calls = []
        lll = enumeration.lll_gram
        monkeypatch.setattr(enumeration, "lll_gram", lambda q: calls.append(1) or lll(q))
        monkeypatch.setattr(enumeration, "_PENALTY_BITS", 1)
        rng = random.Random(3)
        doubled = 0
        for trial in range(8):
            h = random_positive(lat, rng, rational=False)
            del calls[:]
            basis, table = _walls_orthogonal(lat.gram, [clear_denominators(h)], [-2, -4])
            assert _primitive_walls(basis[0], table) == complement_route(lat, h, [-2, -4])
            doubled += len(calls) > 1
        assert doubled

    @pytest.mark.parametrize(
        "gram, rows",
        [
            (direct_sum(hyperbolic_plane(), hyperbolic_plane(), hyperbolic_plane()), [E1F1]),
            (direct_sum(hyperbolic_plane(), hyperbolic_plane(), hyperbolic_plane()), [E1F1, E2F2]),
            (direct_sum(hyperbolic_plane(), [[-2]]), []),
            (direct_sum(hyperbolic_plane(), [[2]]), [(1, 1, 0)]),
        ],
    )
    def test_complement_not_negative_definite_raises(self, monkeypatch, gram, rows):
        # N^2 M > I from the first reduction on, so one failed leading-minor
        # test is a SignatureError, never a retry
        calls = []
        lll = enumeration.lll_gram
        monkeypatch.setattr(enumeration, "lll_gram", lambda q: calls.append(1) or lll(q))
        with pytest.raises(SignatureError):
            _walls_orthogonal(gram, rows, [-2])
        assert len(calls) == 1

    def test_missed_complement_raises_past_the_cap(self, monkeypatch):
        # an LLL that does not reduce never puts its first rows into h-perp;
        # the loop stops at the proved cap instead of doubling forever
        calls = []

        def unreduced(q):
            calls.append(1)
            lam, d = integral_gso(q)
            return [tuple(int(i == j) for j in range(len(q))) for i in range(len(q))], lam, d

        monkeypatch.setattr(enumeration, "lll_gram", unreduced)
        monkeypatch.setattr(enumeration, "_PENALTY_BITS", 1)
        lat = BBFLattice(HYPERBOLIC["U+<-2>"])
        with pytest.raises(InvariantViolation):
            _walls_orthogonal(lat.gram, [(1, 1, 0)], [-2])
        # cap 1 + 2^2 * 3 * |det G| 2 * det M 2 = 49: N^2 = 4, 16, 256
        assert len(calls) == 3


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
    def test_box_oracle_on_random_vectors(self, seed):
        # U + <-2k> for k = 1, 2, 3, integral or rational h; against the
        # coordinate box and, exactly, against the complement route
        rng = random.Random(seed)
        lat = BBFLattice(HYPERBOLIC["U+<-%d>" % (2 * rng.randint(1, 3))])
        h = random_positive(lat, rng, rational=rng.random() < 0.5)
        walls = wall_classes_through(lat, h, [-2, -4])
        assert walls == complement_route(lat, h, [-2, -4])
        got = {(w.wall_class, w.norm) for w in walls}
        expect = set()
        for z in itertools.product(range(-14, 15), repeat=3):
            if not any(z) or content(z) != 1:
                continue
            if lat.q(z) in (-2, -4) and lat.inner(z, h) == 0:
                expect.add((sign_normalize(z), lat.q(z)))
        assert got == expect

    def test_complement_route_on_u_plus_e8(self):
        lat = BBFLattice(HYPERBOLIC["U+E8(-1)"])
        rng = random.Random(8)
        hits = 0
        for trial in range(20):
            h = random_positive(lat, rng, rational=trial % 2 == 1)
            walls = wall_classes_through(lat, h, [-2, -4])
            assert walls == complement_route(lat, h, [-2, -4])
            hits += bool(walls)
        assert hits  # small classes of U + E8(-1) lie on roots


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
        assert err.value.walls == tuple(wall_classes_through(lat_hyp, (1, 1, 0), [-2]))

    @pytest.mark.parametrize(
        "u, v, on",
        [
            ((1, 1, 0), (3, 4, 1), "u"),
            ((1, 1, 0), (1, 2, 1), "u"),  # both endpoints on walls: u first
            ((1, 2, 1), (1, 1, 0), "u"),
            ((3, 4, 1), (Fraction(1, 3), Fraction(1, 3), 0), "v"),
            ((Fraction(3, 2), Fraction(3, 2), 0), (3, 4, 1), "u"),
        ],
    )
    def test_endpoint_walls_are_walls_through(self, lat_hyp, u, v, on):
        with pytest.raises(OnWallError) as err:
            separating_walls(lat_hyp, u, v, [-2, -4])
        endpoint = u if on == "u" else v
        assert err.value.walls == tuple(wall_classes_through(lat_hyp, endpoint, [-2, -4]))
        assert str(err.value).startswith("endpoint %s lies on walls" % on)

    def test_one_search_per_call(self, lat_hyp, monkeypatch):
        # the endpoint walls are read off the segment search's candidates
        import bbf.enumeration as enumeration

        calls = []
        search = enumeration.short_vectors

        def counted(lam, d, bound, ell, targets):
            calls.append(sorted(targets))
            return search(lam, d, bound, ell, targets)

        monkeypatch.setattr(enumeration, "short_vectors", counted)
        separating_walls(lat_hyp, (3, 4, 1), (4, 3, -1), [-2, -4])
        # its shell values are q(u,u) m = 22 m for the norms m
        assert calls == [[-88, -44]]
        with pytest.raises(OnWallError):
            separating_walls(lat_hyp, (3, 4, 1), (1, 1, 0), [-2])
        assert len(calls) == 2

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


@pytest.mark.parametrize("name", sorted(HYPERBOLIC))
def test_segment_bound_is_largest_at_the_far_endpoint(name):
    # B(t) = q(u,w_t)^2 / q(w_t,w_t) - q(u,u) on w_t = u + t (v - u), the
    # Cauchy-Schwarz bound of separating_walls, straight from its definition:
    # no grid point exceeds the closed form B(1) the search uses
    lat = BBFLattice(HYPERBOLIC[name])
    rng = random.Random(name)
    grid = [Fraction(i, 36) for i in range(37)]
    for trial in range(30):
        u = random_positive(lat, rng, rational=trial % 2 == 1)
        v = random_positive(lat, rng, rational=trial % 3 == 1)
        if lat.inner(u, v) < 0:
            v = tuple(-x for x in v)

        def bound(t):
            w = [a + t * (b - a) for a, b in zip(u, v)]
            return Fraction(lat.inner(u, w)) ** 2 / lat.q(w) - lat.q(u)

        top = bound(Fraction(1))
        assert top == Fraction(lat.inner(u, v)) ** 2 / lat.q(v) - lat.q(u)
        assert bound(Fraction(0)) == 0
        assert all(bound(t) <= top for t in grid)


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
