import random
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from bbf.exactlinalg import (
    combine_rows,
    det_bareiss,
    det_rational,
    gram_restrict,
    hnf,
    inertia,
    kernel_int,
    vec_rat,
)
from bbf.lattice import (
    BBFLattice,
    DegenerateGram,
    Definiteness,
    DimensionMismatch,
    InvariantViolation,
    OrientationRelation,
    OrientedPositiveSubspace,
    PeriodLine,
    definiteness,
    diagonal_matrix,
    direct_sum,
    e8_matrix,
    fujiki_product,
    hyperbolic_plane,
    k3_matrix,
    orientation_relation,
    period_line_to_plane,
    plane_to_period_line,
)

X = (1, 1, 0, 0, 0, 0)
Y = (0, 0, 1, 1, 0, 0)
Z = (0, 0, 0, 0, 1, 1)


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(InvariantViolation):
            BBFLattice([[0, 1], [2, 0]])

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            BBFLattice([[0, 1, 0], [1, 0, 0]])

    def test_degenerate_reports_radical(self):
        with pytest.raises(DegenerateGram) as err:
            BBFLattice([[2, 2], [2, 2]])
        assert err.value.kernel == [(1, -1)]
        # the radical is reported in row Hermite normal form
        with pytest.raises(DegenerateGram) as err:
            BBFLattice([[1, 1, 1], [1, 1, 1], [1, 1, 1]])
        assert err.value.kernel == [(1, 0, -1), (0, 1, -1)]

    def test_rejects_non_integral_entries(self):
        # a Gram entry is checked, never truncated
        for gram in ([[0.5, 1], [1, -2.7]], [[0, Fraction(1, 2)], [Fraction(1, 2), 0]], [[0, "1"], ["1", 0]]):
            with pytest.raises(InvariantViolation):
                BBFLattice(gram)
        with pytest.raises(InvariantViolation):
            direct_sum(hyperbolic_plane(), [[-2.5]])
        # entries that equal integers are kept as those integers
        assert BBFLattice([[0.0, 1.0], [Fraction(2, 2), 0]]).gram == ((0, 1), (1, 0))
        assert direct_sum([[Fraction(-4, 2)]]) == [[-2]]

    def test_k3_lattice(self, lat_k3):
        assert lat_k3.rank == 22
        assert lat_k3.signature() == (3, 19)
        assert lat_k3.det == det_bareiss(lat_k3.gram) == -1
        assert all(lat_k3.gram[i][i] % 2 == 0 for i in range(22))


def random_gram(rng, n):
    """A symmetric integer matrix; often with an all-zero diagonal, where the
    diagonalization must take its hyperbolic-pair step, and often with its
    last row and column a combination of others, which makes it degenerate."""
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-3, 3)
    if rng.random() < 0.3:
        for i in range(n):
            m[i][i] = 0
    if n > 1 and rng.random() < 0.2:
        a, b = rng.randint(-1, 1), rng.randint(-1, 1)
        m[-1] = [a * x + b * y for x, y in zip(m[0], m[n // 2])]
        for i in range(n):
            m[i][-1] = m[-1][i]
        m[-1][-1] = a * m[0][-1] + b * m[n // 2][-1]
    return m


class TestDiagonalInvariants:
    # det, signature and nondegeneracy are read off the one diagonalization
    # of the constructor; the separate eliminations are the oracles
    def test_against_determinant_and_inertia(self):
        rng = random.Random(23)
        kinds = set()
        for _ in range(1500):
            m = random_gram(rng, rng.randint(1, 7))
            det = det_bareiss(m)
            if det == 0:
                with pytest.raises(DegenerateGram) as err:
                    BBFLattice(m)
                assert err.value.kernel == hnf(kernel_int(m))
            else:
                lat = BBFLattice(m)
                assert lat.det == det
                assert lat.signature() == inertia(m)[:2]
            kinds.add((det == 0, all(m[i][i] == 0 for i in range(len(m)))))
        assert kinds == {(False, False), (False, True), (True, False), (True, True)}

    def test_reads_need_no_elimination(self, kernel_calls):
        lat = BBFLattice(k3_matrix())
        calls = kernel_calls("diagonalize_symmetric", "det_bareiss", "inertia", "gauss_jordan")
        assert (lat.signature(), lat.det) == ((3, 19), -1)
        assert calls == dict.fromkeys(calls, 0)

    def test_rank_zero(self):
        lat = BBFLattice([])
        assert (lat.rank, lat.signature(), lat.det) == (0, (0, 0), 1)


class TestInner:
    def test_spec_values(self, lat_u, lat_hyp):
        assert lat_u.inner((1, 0), (0, 1)) == 1
        assert lat_hyp.inner((1, 1, 1), (1, 1, 1)) == 0
        assert lat_hyp.inner((1, 2, 1), (1, 2, 1)) == 2

    def test_dimension_mismatch(self, lat_u):
        with pytest.raises(DimensionMismatch):
            lat_u.inner((1, 0, 0), (0, 1))

    def test_float_entries_are_exact(self, lat_hyp):
        # q(a, b, c) = 2ab - 2c^2 at the rationals the floats hold exactly;
        # in floating point 2 * 0.1 * 2.5 - 2 * 0.5^2 rounds to 0
        v = (0.1, 2.5, 0.5)
        assert lat_hyp.q(v) == 5 * Fraction(0.1) - Fraction(1, 2) > 0
        assert lat_hyp.inner(v, (1, 0, 0)) == Fraction(2.5)
        assert lat_hyp.inner((0, 0, 0), v) == 0
        grid = [x / 10 for x in range(-30, 31, 3)]
        for a in grid:
            for c in (0.1, 0.3, 0.5, 0.7):
                for b in (0.2, 1.5, 2.5, 4.9):
                    u = (a, b, c)
                    exact = vec_rat(u)
                    assert lat_hyp.q(u) == lat_hyp.q(exact)
                    assert lat_hyp.inner(u, (1, 2, 3)) == lat_hyp.inner(exact, (1, 2, 3))

    @settings(max_examples=50, deadline=None)
    @given(
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        st.lists(st.integers(-9, 9), min_size=3, max_size=3),
        st.fractions(min_value=-5, max_value=5),
        st.fractions(min_value=-5, max_value=5),
    )
    def test_bilinear_symmetric(self, lat_hyp, u, v, w, a, b):
        lat = lat_hyp
        combo = tuple(a * x + b * y for x, y in zip(v, w))
        assert lat.inner(u, combo) == a * lat.inner(u, v) + b * lat.inner(u, w)
        assert lat.inner(u, v) == lat.inner(v, u)


class TestSignature:
    def test_spec_values(self, lat_u, lat_u3, lat_hyp):
        assert lat_u.signature() == (1, 1)
        assert lat_u3.signature() == (3, 3)
        assert lat_hyp.signature() == (1, 2)

    def test_unimodular_invariance(self):
        rng = random.Random(3)
        for gram in (hyperbolic_plane(), direct_sum(hyperbolic_plane(), [[-2]]), k3_matrix()):
            base = BBFLattice(gram)
            n = base.rank
            for _ in range(20):
                u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
                for _ in range(3 * n):
                    kind = rng.randrange(3)
                    i, j = rng.randrange(n), rng.randrange(n)
                    if kind == 0 and i != j:
                        c = rng.randint(-2, 2)
                        u[i] = [a + c * b for a, b in zip(u[i], u[j])]
                    elif kind == 1:
                        u[i], u[j] = u[j], u[i]
                    else:
                        u[i] = [-a for a in u[i]]
                transformed = BBFLattice(gram_restrict(u, gram))
                assert transformed.signature() == base.signature()


class TestComplement:
    def test_isotropic_self_orthogonal(self, lat_u):
        assert lat_u.orthogonal_complement_integral([(1, 0)]) == [(1, 0)]

    def test_rank_five(self, lat_u3):
        comp = lat_u3.orthogonal_complement_integral([(1, 2, 0, 0, 0, 0)])
        assert comp == [
            (1, -2, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
            (0, 0, 0, 0, 1, 0),
            (0, 0, 0, 0, 0, 1),
        ]

    def test_three_constraints(self, lat_u3):
        comp = lat_u3.orthogonal_complement_integral(
            [(1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)]
        )
        assert comp == [(1, -2, 0, 0, 0, 0), (0, 0, 1, -2, 0, 0), (0, 0, 0, 0, 1, -2)]

    def test_rational_subspace_rows(self, lat_u3):
        comp = lat_u3.orthogonal_complement_integral([(Fraction(1, 2), 1, 0, 0, 0, 0)])
        assert comp == lat_u3.orthogonal_complement_integral([(1, 2, 0, 0, 0, 0)])

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 10**6))
    def test_saturation(self, lat_u3, seed):
        rng = random.Random(seed)
        while True:
            rows = [[rng.randint(-3, 3) for _ in range(6)] for _ in range(rng.randint(1, 3))]
            from bbf.exactlinalg import rank as mat_rank

            if mat_rank(rows) == len(rows):
                break
        comp = lat_u3.orthogonal_complement_integral(rows)
        if not comp:
            return
        coeffs = [rng.randint(-4, 4) for _ in comp]
        point = [sum(c * v[j] for c, v in zip(coeffs, comp)) for j in range(6)]
        assert hnf(list(comp) + [point]) == hnf(list(comp))
        for row in comp:
            assert all(lat_u3.inner(row, s) == 0 for s in rows)

    def test_positive_3space_complement_negative_definite(self, lat_u3, lat_k3):
        # the finiteness linchpin: in signature (3, k), the complement of a
        # positive 3-space is negative definite.  Positive 3-spaces are a
        # thin cap, so perturb a known one instead of rejection sampling.
        rng = random.Random(17)
        for lat in (lat_u3, lat_k3):
            anchor = [[0] * lat.rank for _ in range(3)]
            for b in range(3):
                anchor[b][2 * b] = 1
                anchor[b][2 * b + 1] = 1
            found = 0
            attempts = 0
            while found < 5 and attempts < 500:
                attempts += 1
                rows = []
                for b in range(3):
                    row = [3 * a for a in anchor[b]]
                    row[rng.randrange(lat.rank)] += rng.choice((-1, 1))
                    rows.append(row)
                try:
                    w = OrientedPositiveSubspace(lat, rows)
                except InvariantViolation:
                    continue
                found += 1
                comp = lat.orthogonal_complement_integral(w.basis)
                sub = gram_restrict(comp, lat.gram)
                assert definiteness(sub) is Definiteness.NEGATIVE_DEFINITE
            assert found == 5


class TestRestrictedGramAndDefiniteness:
    def test_spec_values(self, lat_u3, lat_hyp):
        assert lat_u3.restricted_gram([X, Y]) == [[2, 0], [0, 2]]
        assert lat_u3.restricted_gram([(1, -1, 0, 0, 0, 0)]) == [[-2]]
        assert lat_hyp.restricted_gram([(1, 2, 1), (0, 0, 1)]) == [[2, -2], [-2, -2]]

    def test_float_rows_are_exact(self, lat_hyp):
        # a float entry is the rational it holds, as inner reads it; a
        # product in floating point gave [[0.0]]
        row = (0.1, 2.5, 0.5)
        assert lat_hyp.q(row) == Fraction(1, 36028797018963968)
        assert lat_hyp.restricted_gram([row]) == [[Fraction(1, 36028797018963968)]]
        assert definiteness(lat_hyp.restricted_gram([row])) is Definiteness.POSITIVE_DEFINITE

    def test_float_rows_complement_is_exact(self, lat_k3):
        # a product in floating point gave entries near 5 * 10^15
        row = [0] * 22
        row[6], row[8] = 0.1, 0.2
        comp = lat_k3.orthogonal_complement_integral([row])
        assert comp == lat_k3.orthogonal_complement_integral([vec_rat(row)])
        assert max(abs(x) for z in comp for x in z) <= 3

    def test_classification(self):
        assert definiteness([[2, 0], [0, 2]]) is Definiteness.POSITIVE_DEFINITE
        assert definiteness(diagonal_matrix([-2, -2, -4])) is Definiteness.NEGATIVE_DEFINITE
        assert definiteness(hyperbolic_plane()) is Definiteness.INDEFINITE
        assert definiteness([[1, 1], [1, 1]]) is Definiteness.DEGENERATE

    def test_rejects_asymmetric(self):
        with pytest.raises(InvariantViolation):
            definiteness([[1, 2], [0, 1]])

    def test_constructor_validator_agreement(self, lat_u3):
        rng = random.Random(23)
        built = 0
        for _ in range(400):
            rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(2)]
            try:
                plane = OrientedPositiveSubspace(lat_u3, rows)
            except InvariantViolation:
                continue
            built += 1
            assert definiteness(plane.restricted_gram()) is Definiteness.POSITIVE_DEFINITE
        assert built > 10


class TestOrientation:
    def test_cycles_and_swaps(self, lat_u3):
        w1 = OrientedPositiveSubspace(lat_u3, (X, Y, Z))
        assert orientation_relation(w1, OrientedPositiveSubspace(lat_u3, (Y, Z, X))) \
            is OrientationRelation.SAME_ORIENTED_SUBSPACE
        assert orientation_relation(w1, OrientedPositiveSubspace(lat_u3, (Y, X, Z))) \
            is OrientationRelation.OPPOSITE_ORIENTATION
        other = OrientedPositiveSubspace(lat_u3, (X, Y, (0, 0, 0, 0, 1, 2)))
        assert orientation_relation(w1, other) is OrientationRelation.DIFFERENT_SUBSPACE

    def test_row_scaling_keeps_orientation(self, lat_u3):
        w1 = OrientedPositiveSubspace(lat_u3, (X, Y))
        w2 = OrientedPositiveSubspace(lat_u3, (tuple(3 * v for v in X), Y))
        assert orientation_relation(w1, w2) is OrientationRelation.SAME_ORIENTED_SUBSPACE

    def test_dim_mismatch(self, lat_u3):
        w1 = OrientedPositiveSubspace(lat_u3, (X, Y, Z))
        w2 = OrientedPositiveSubspace(lat_u3, (X, Y))
        with pytest.raises(DimensionMismatch):
            orientation_relation(w1, w2)

    def test_reversed(self, lat_u3):
        w1 = OrientedPositiveSubspace(lat_u3, (X, Y))
        assert orientation_relation(w1, w1.reversed()) is OrientationRelation.OPPOSITE_ORIENTATION

    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([2, 3]),
        st.lists(st.fractions(Fraction(-9, 10), Fraction(9, 10), max_denominator=10), min_size=3, max_size=3),
        st.lists(st.fractions(-5, 5, max_denominator=7), min_size=9, max_size=9),
    )
    def test_change_of_basis_sign(self, lat_u3, dim, tilt, entries):
        # (1 + t, 1 - t) in block b has norm 2 (1 - t^2) > 0 and the blocks
        # are orthogonal, so the first dim blocks span a positive subspace
        rows = []
        for b in range(dim):
            row = [0] * 6
            row[2 * b], row[2 * b + 1] = 1 + tilt[b], 1 - tilt[b]
            rows.append(row)
        change = [entries[dim * i:dim * (i + 1)] for i in range(dim)]
        det = det_rational(change)
        assume(det != 0)
        s1 = OrientedPositiveSubspace(lat_u3, rows)
        s2 = OrientedPositiveSubspace(lat_u3, [combine_rows(c, rows) for c in change])
        expected = (
            OrientationRelation.SAME_ORIENTED_SUBSPACE if det > 0
            else OrientationRelation.OPPOSITE_ORIENTATION
        )
        assert orientation_relation(s1, s2) is expected
        assert orientation_relation(s2, s1) is expected
        # move one row off the subspace: along a positive vector of the
        # unused block for a plane, along a negative one of block 0 otherwise
        off = (0, 0, 0, 0, 1, 1) if dim == 2 else (1, -1, 0, 0, 0, 0)
        moved = [list(r) for r in s2.basis]
        moved[0] = [a + Fraction(1, 100) * b for a, b in zip(moved[0], off)]
        try:
            s3 = OrientedPositiveSubspace(lat_u3, moved)
        except InvariantViolation:
            assume(False)
        assert orientation_relation(s1, s3) is OrientationRelation.DIFFERENT_SUBSPACE


class TestPeriodLine:
    def test_spec_examples(self, lat_u3):
        line = PeriodLine(lat_u3, X, Y)
        plane = period_line_to_plane(line)
        assert plane.basis == (X, Y)
        with pytest.raises(InvariantViolation):
            PeriodLine(lat_u3, X, (0, 0, 1, 2, 0, 0))
        with pytest.raises(InvariantViolation):
            PeriodLine(lat_u3, X, (1, -1, 0, 0, 0, 0))

    def test_roundtrip_on_oriented_planes(self, lat_u3):
        rng = random.Random(29)
        done = 0
        while done < 20:
            rows = [[rng.randint(-2, 2) for _ in range(6)] for _ in range(2)]
            try:
                plane = OrientedPositiveSubspace(lat_u3, rows)
            except InvariantViolation:
                continue
            done += 1
            res = plane_to_period_line(plane)
            # orthogonal split always exact
            assert lat_u3.inner(res.x, res.y) == 0
            if res.equal_norm:
                back = period_line_to_plane(res.line)
                assert orientation_relation(back, plane) \
                    is OrientationRelation.SAME_ORIENTED_SUBSPACE
            else:
                ratio = Fraction(lat_u3.q(res.y)) / Fraction(lat_u3.q(res.x))
                assert ratio == res.norm_ratio

    def test_norm_ratio_reported(self, lat_u3):
        plane = OrientedPositiveSubspace(lat_u3, (X, (0, 0, 0, 0, 1, 2)))
        res = plane_to_period_line(plane)
        assert not res.equal_norm
        assert res.norm_ratio == 2
        assert res.line is None

    def test_scale(self, lat_u3):
        plane = OrientedPositiveSubspace(lat_u3, (X, Y))
        res = plane_to_period_line(plane, scale=3)
        assert res.x == tuple(3 * v for v in X)
        assert lat_u3.q(res.x) == lat_u3.q(res.y)


class TestFujiki:
    def test_k3_degenerates_to_form(self, lat_k3):
        assert fujiki_product(1, 1, lat_k3.q((1, 1) + (0,) * 20)) == 2

    def test_synthetic(self):
        assert fujiki_product(3, 2, 2) == 12
        assert fujiki_product(3, 2, 0) == 0
        assert fujiki_product(2, 3, Fraction(1, 2)) == Fraction(1, 4)


class TestIsType11:
    def test_spec_examples(self, lat_u3):
        plane = OrientedPositiveSubspace(lat_u3, (X, Y))
        assert lat_u3.is_type_11((0, 0, 0, 0, 1, -1), plane)
        assert lat_u3.is_type_11((1, -1, 0, 0, 0, 0), plane)
        assert not lat_u3.is_type_11((1, 0, 0, 0, 0, 0), plane)

    def test_float_entries_are_exact(self, lat_u3):
        # q(z, (1, 1, 1, 1, 0, 0)) = 10^16 + 1 - 10^16 - 1 = 0, which a
        # floating-point sum loses: 10^16 + 1 rounds to 10^16
        plane = OrientedPositiveSubspace(lat_u3, ((1, 1, 1, 1, 0, 0), Z))
        assert lat_u3.is_type_11((1e16, 1.0, -1e16, -1.0, 0, 0), plane)

    def test_matches_complement_membership(self, lat_u3):
        rng = random.Random(41)
        plane = OrientedPositiveSubspace(lat_u3, (X, Y))
        comp = lat_u3.orthogonal_complement_integral(plane.basis)
        for _ in range(30):
            z = tuple(rng.randint(-4, 4) for _ in range(6))
            in_span = hnf(list(comp) + [list(z)]) == hnf(list(comp))
            assert lat_u3.is_type_11(z, plane) == in_span


def test_e8_even_negative_definite():
    e8m = e8_matrix(-1)
    assert det_bareiss(e8m) == 1
    assert definiteness(e8m) is Definiteness.NEGATIVE_DEFINITE


def test_dependent_rows_rejected(lat_u3):
    # a nondegenerate form leaves dependent rows a larger kernel, and a
    # degenerate restricted Gram, so neither path needs a rank computation
    x_plus_y = tuple(a + b for a, b in zip(X, Y))
    for rows in ([X, X], [X, Y, x_plus_y], [X, (2, 2, 0, 0, 0, 0)]):
        with pytest.raises(InvariantViolation, match="full-row-rank"):
            lat_u3.orthogonal_complement_integral(rows)
        with pytest.raises(InvariantViolation, match="degenerate"):
            OrientedPositiveSubspace(lat_u3, rows)
    with pytest.raises(InvariantViolation, match="full-row-rank"):
        lat_u3.orthogonal_complement_integral([X, Y, Z, X, Y, Z, X])
