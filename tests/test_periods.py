import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from bbf.enumeration import NormTargetSet, _primitive_walls, _walls_orthogonal, mbm_candidates_in_complement
from bbf.exactlinalg import clear_denominators, gram_restrict, kernel_int, mat_vec, primitive_part, rank
from bbf.lattice import (
    InvariantViolation,
    OrientationRelation,
    OrientedPositiveSubspace,
    SignatureError,
    orientation_relation,
)
from bbf.periods import (
    FiberPoint,
    _FiberFrame,
    _sample_plane,
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

from oracles import walls_in_sublattice

X = (1, 1, 0, 0, 0, 0)
Y = (0, 0, 1, 1, 0, 0)
Z = (0, 0, 0, 0, 1, 1)


def rational_rotation(rng):
    """A random rational special-orthogonal 3x3 matrix via the quaternion
    parametrization; exact, determinant one."""
    while True:
        p, q, r, s = (Fraction(rng.randint(-5, 5)) for _ in range(4))
        nn = p * p + q * q + r * r + s * s
        if nn:
            break
    return [
        [(p * p + q * q - r * r - s * s) / nn, 2 * (q * r - p * s) / nn, 2 * (q * s + p * r) / nn],
        [2 * (q * r + p * s) / nn, (p * p - q * q + r * r - s * s) / nn, 2 * (r * s - p * q) / nn],
        [2 * (q * s - p * r) / nn, 2 * (r * s + p * q) / nn, (p * p - q * q - r * r + s * s) / nn],
    ]


def rotate_triple(t, rot):
    frame = (t.x, t.y, t.z)
    rows = [
        tuple(sum(rot[i][k] * Fraction(col) for k, col in enumerate(cols)) for cols in zip(*frame))
        for i in range(3)
    ]
    return HKTripleClasses(t.lattice, *rows)


class TestTripleInvariants:
    def test_valid(self, lat_u3):
        t = HKTripleClasses(lat_u3, X, Y, Z)
        assert t.norm == 2
        assert t.span().dim == 3

    def test_rejects_non_orthogonal(self, lat_u3):
        with pytest.raises(InvariantViolation):
            HKTripleClasses(lat_u3, X, (1, 1, 1, 1, 0, 0), Z)

    def test_rejects_unequal_norms(self, lat_u3):
        with pytest.raises(InvariantViolation):
            HKTripleClasses(lat_u3, X, Y, (0, 0, 0, 0, 1, 2))

    def test_rejects_negative(self, lat_u3):
        with pytest.raises(InvariantViolation):
            HKTripleClasses(
                lat_u3, (1, -1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0), (0, 0, 0, 0, 1, -1)
            )


class TestSymplecticImage:
    def test_spec_examples(self, lat_u3):
        assert in_symplectic_period_image(lat_u3, X)
        assert not in_symplectic_period_image(lat_u3, (1, -1, 0, 0, 0, 0))
        assert not in_symplectic_period_image(lat_u3, (1, 0, 0, 0, 0, 0))

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.integers(-9, 9), min_size=6, max_size=6))
    def test_matches_form_sign(self, lat_u3, v):
        assert in_symplectic_period_image(lat_u3, v) == (lat_u3.q(v) > 0)

    def test_float_entries_decided_exactly(self, lat_hyp):
        # q(a, b, c) = 2ab - 2c^2 on U + <-2>, at the rationals the floats
        # hold; near the light cone floating point gets the sign wrong
        assert in_symplectic_period_image(lat_hyp, (0.1, 2.5, 0.5))
        tenths = [k / 10 for k in range(1, 31)]
        for a in tenths:
            for b in tenths:
                for c in (0.1, 0.3, 0.5, 0.7, 1.1):
                    fa, fb, fc = Fraction(a), Fraction(b), Fraction(c)
                    assert in_symplectic_period_image(lat_hyp, (a, b, c)) == (fa * fb > fc * fc)

    def test_scaling_invariance(self, lat_u3):
        for v in (X, (1, -1, 0, 0, 0, 0)):
            base = in_symplectic_period_image(lat_u3, v)
            assert in_symplectic_period_image(lat_u3, tuple(Fraction(3, 7) * a for a in v)) == base


class TestHKImage:
    def test_spec_examples(self, lat_u3):
        res = in_hk_period_image(lat_u3, [X, Y, Z], [-2])
        assert not res.in_image
        assert {w.wall_class for w in res.witnesses} == {
            (1, -1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0), (0, 0, 0, 0, 1, -1),
        }
        res = in_hk_period_image(
            lat_u3, [(1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)], [-2]
        )
        assert res.in_image and not res.witnesses
        with pytest.raises(InvariantViolation):
            in_hk_period_image(lat_u3, [(1, -1, 0, 0, 0, 0), Y, Z], [-2])

    def test_orientation_and_basis_independent(self, lat_u3):
        rows = [(1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)]
        res1 = in_hk_period_image(lat_u3, rows, [-2])
        res2 = in_hk_period_image(lat_u3, [rows[1], rows[0], rows[2]], [-2])
        mixed = [
            rows[0],
            tuple(a + b for a, b in zip(rows[0], rows[1])),
            tuple(3 * c for c in rows[2]),
        ]
        res3 = in_hk_period_image(lat_u3, mixed, [-2])
        assert res1.in_image == res2.in_image == res3.in_image

    def test_positive_vectors_inside_accepted_space(self, lat_u3):
        rows = [(1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)]
        res = in_hk_period_image(lat_u3, rows, [-2])
        assert res.in_image
        rng = random.Random(4)
        for _ in range(25):
            coeffs = [rng.randint(-4, 4) for _ in range(3)]
            if not any(coeffs):
                continue
            v = tuple(sum(c * r[j] for c, r in zip(coeffs, rows)) for j in range(6))
            assert in_symplectic_period_image(lat_u3, v)

    def test_monotone_in_norm_set(self, lat_u3):
        # enlarging the norm target set can only shrink the accepted locus
        rng = random.Random(9)
        anchors = [(1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)]
        checked = 0
        for _ in range(200):
            rows = []
            for a in anchors:
                row = [3 * c for c in a]
                row[rng.randrange(6)] += rng.choice((-1, 1))
                rows.append(row)
            try:
                small = in_hk_period_image(lat_u3, rows, [-2])
            except InvariantViolation:
                continue
            big = in_hk_period_image(lat_u3, rows, [-2, -4, -6])
            checked += 1
            if big.in_image:
                assert small.in_image
        assert checked > 20


def positive_3spaces(lat, seed, count, norms):
    """count positive 3-spaces of a signature-(3, k) lattice, as integer
    rows x, u, v: a random positive class x with a fiber plane over it
    (positive 3-spaces are a thin cap, which the fiber sampler aims at)."""
    rng = random.Random(seed)
    while True:
        x = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
        if lat.q(x) > 0:
            break
    return [[x, *s.point.plane.basis] for s in sample_fiber(lat, x, count, norms, seed)]


def rational_rows(rows, rng):
    """Rows spanning the same space with the same orientation: a random
    upper-triangular rational change of basis with positive diagonal."""
    out = []
    for i in range(3):
        coeffs = [Fraction(rng.randint(1, 5), rng.randint(1, 4)) if j == i
                  else Fraction(rng.randint(-3, 3), rng.randint(1, 4)) if j > i else 0
                  for j in range(3)]
        out.append(tuple(sum(c * r[k] for c, r in zip(coeffs, rows)) for k in range(len(rows[0]))))
    return out


class TestComplementOracle:
    # the period-image test searches the complement as the kernel leaves
    # it; the canonical (row Hermite) complement is the oracle
    @pytest.mark.parametrize(
        "name, norms, seed, count", [("U3", [-2, -4], 61, 30), ("K3", [-2], 4, 12)], ids=["U3", "K3"]
    )
    def test_against_canonical_complement(self, lat_u3, lat_k3, name, norms, seed, count):
        lat = lat_u3 if name == "U3" else lat_k3
        rng = random.Random(seed)
        outcomes = set()
        for rows in positive_3spaces(lat, seed, count, norms):
            for basis in (rows, rational_rows(rows, rng)):
                oracle = walls_in_sublattice(
                    lat.gram, lat.orthogonal_complement_integral(basis), NormTargetSet(norms)
                )
                assert mbm_candidates_in_complement(lat, basis, norms) == oracle
                for w in (basis, OrientedPositiveSubspace(lat, basis)):
                    res = in_hk_period_image(lat, w, norms)
                    assert res.witnesses == tuple(oracle)
                    assert res.in_image == (not oracle)
                outcomes.add(not oracle)
        assert outcomes == {True, False}

    def test_one_elimination_per_call(self, lat_k3, monkeypatch):
        # one penalty-form reduction, and no saturated kernel, Gauss-Jordan
        # elimination (rank or determinant) or canonical Hermite form
        import sys

        from bbf import exactlinalg

        calls = {"hnf_with_transform": 0, "hnf": 0, "gauss_jordan": 0, "lll_gram": 0}
        rows = positive_3spaces(lat_k3, 5, 1, [-2])[0]
        modules = [m for n, m in sys.modules.items() if n == "bbf" or n.startswith("bbf.")]
        for name in calls:
            original = getattr(exactlinalg, name)

            def counted(*args, _name=name, _original=original):
                calls[_name] += 1
                return _original(*args)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        in_hk_period_image(lat_k3, rows, [-2])
        assert calls == {"hnf_with_transform": 0, "hnf": 0, "gauss_jordan": 0, "lll_gram": 1}


def complement_route(gram, rows, norms):
    """The walls orthogonal to rows from their saturated complement:
    kernel_int, then the restricted Gram, then the rows=() search."""
    basis = kernel_int([clear_denominators(mat_vec(gram, r)) for r in rows], len(gram))
    return walls_in_sublattice(gram, basis, NormTargetSet(norms))


class TestWallsOrthogonal:
    # the penalty-form kernel against the complement route, cold and warm
    @pytest.mark.parametrize(
        "name, norms, seed", [("U3", [-2, -4], 9), ("K3", [-2], 5)], ids=["U3", "K3"]
    )
    def test_warm_along_random_paths(self, lat_u3, lat_k3, name, norms, seed):
        lat = lat_u3 if name == "U3" else lat_k3
        rng = random.Random(seed)
        while True:
            x = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
            if lat.q(x) > 0:
                break
        frame = _FiberFrame(lat, x, NormTargetSet(norms))
        # random jumps between sampled planes, then a straight path
        planes = [_sample_plane(frame, rng) for _ in range(8)]
        (u0, v0), (u1, v1) = planes[:2]
        for k in range(1, 13):
            planes.append((
                primitive_part([(13 - k) * a + k * b for a, b in zip(u0, u1)]),
                primitive_part([(13 - k) * a + k * b for a, b in zip(v0, v1)]),
            ))
        start, tested, hits = None, 0, 0
        for u, v in planes:
            if not frame.plane_shape(u, v):
                continue
            expect = complement_route(frame.gram_n, (u, v), norms)
            warm = start is not None
            walls, start = frame.plane_walls(u, v, start)
            assert walls == expect
            assert frame.plane_walls(u, v)[0] == expect
            # a warm answer carries the frame Gram in its reduced basis
            assert (start[1] is not None) == warm
            if warm:
                assert start[1] == gram_restrict(start[0], frame.gram_n)
            tested += 1
            hits += bool(walls)
        assert tested >= 12
        assert 0 < hits < tested

    @pytest.mark.parametrize(
        "name, norms, seed, count", [("U3", [-2, -4], 23, 20), ("K3", [-2], 8, 8)], ids=["U3", "K3"]
    )
    def test_three_rows_cold_and_warm(self, lat_u3, lat_k3, name, norms, seed, count):
        # ambient rows x, u, v; each search warm-starts from the last one
        lat = lat_u3 if name == "U3" else lat_k3
        start, outcomes = None, set()
        for rows in positive_3spaces(lat, seed, count, norms):
            expect = complement_route(lat.gram, rows, norms)
            cold, table = _walls_orthogonal(lat.gram, rows, norms)
            assert _primitive_walls(cold[0], table) == expect
            start, table = _walls_orthogonal(lat.gram, rows, norms, start)
            assert _primitive_walls(start[0], table) == expect
            outcomes.add(bool(expect))
        assert outcomes == {True, False}


class TestTwistor:
    def test_axis_cases(self, lat_u3):
        t = HKTripleClasses(lat_u3, X, Y, Z)
        f = twistor_member(t, TwistorDirection(1, 0, 0))
        assert f.omega == X
        assert f.plane.basis == (Y, Z)
        f = twistor_member(t, TwistorDirection(0, 1, 0))
        assert f.omega == Y
        assert orientation_relation(
            f.plane, OrientedPositiveSubspace(lat_u3, (Z, X))
        ) is OrientationRelation.SAME_ORIENTED_SUBSPACE
        f = twistor_member(t, TwistorDirection(0, 0, 1))
        assert f.omega == Z
        assert f.plane.basis == (X, Y)

    def test_spec_direction(self, lat_u3):
        t = HKTripleClasses(lat_u3, X, Y, Z)
        f = twistor_member(t, TwistorDirection(1, 2, 2))
        assert f.omega == (1, 1, 2, 2, 2, 2)
        assert lat_u3.q(f.omega) == 18
        for row in f.plane.basis:
            assert lat_u3.inner(f.omega, row) == 0
            assert rank([X, Y, Z, row]) == 3

    def test_zero_direction_rejected(self):
        with pytest.raises(InvariantViolation):
            TwistorDirection(0, 0, 0)

    @settings(max_examples=60, deadline=None)
    @given(
        st.tuples(
            st.fractions(min_value=-6, max_value=6),
            st.fractions(min_value=-6, max_value=6),
            st.fractions(min_value=-6, max_value=6),
        ).filter(lambda d: any(d))
    )
    def test_norm_and_orthogonality_identities(self, lat_u3, d):
        t = HKTripleClasses(lat_u3, X, Y, Z)
        f = twistor_member(t, TwistorDirection(*d))
        a, b, c = (Fraction(x) for x in d)
        assert lat_u3.q(f.omega) == (a * a + b * b + c * c) * t.norm
        assert all(lat_u3.inner(f.omega, row) == 0 for row in f.plane.basis)

    def test_projective_invariance(self, lat_u3):
        t = HKTripleClasses(lat_u3, X, Y, Z)
        f1 = twistor_member(t, TwistorDirection(1, 2, 2))
        f2 = twistor_member(t, TwistorDirection(Fraction(1, 2), 1, 1))
        assert orientation_relation(f1.plane, f2.plane) \
            is OrientationRelation.SAME_ORIENTED_SUBSPACE

    def test_forgetful_composition(self, lat_u3):
        t = HKTripleClasses(lat_u3, X, Y, Z)
        assert forgetful_map(t) == t.x
        assert in_symplectic_period_image(lat_u3, forgetful_map(t))
        assert twistor_member(t, TwistorDirection(1, 0, 0)).omega == forgetful_map(t)


class TestEquivalence:
    def test_spec_examples(self, lat_u3):
        t = HKTripleClasses(lat_u3, X, Y, Z)
        assert hk_equivalence(t, HKTripleClasses(lat_u3, Y, Z, X))
        assert not hk_equivalence(t, HKTripleClasses(lat_u3, Y, X, Z))
        doubled = HKTripleClasses(
            lat_u3,
            tuple(2 * v for v in X), tuple(2 * v for v in Y), tuple(2 * v for v in Z),
        )
        assert hk_equivalence(t, doubled)

    def test_rotation_invariance(self, lat_u3):
        rng = random.Random(31)
        t = HKTripleClasses(lat_u3, X, Y, Z)
        for _ in range(10):
            rot = rational_rotation(rng)
            assert hk_equivalence(t, rotate_triple(t, rot))

    def test_equivalence_relation_on_families(self, lat_u3):
        rng = random.Random(57)
        families = []
        for k in (1, 2, 3):
            base = HKTripleClasses(
                lat_u3,
                (1, k, 0, 0, 0, 0), (0, 0, 1, k, 0, 0), (0, 0, 0, 0, 1, k),
            )
            variants = [base]
            for _ in range(3):
                lam = rng.randint(1, 4)
                scaled = HKTripleClasses(
                    base.lattice,
                    tuple(lam * v for v in base.x),
                    tuple(lam * v for v in base.y),
                    tuple(lam * v for v in base.z),
                )
                variants.append(rotate_triple(scaled, rational_rotation(rng)))
            families.append(variants)
        all_triples = [t for fam in families for t in fam]
        for a in all_triples:
            assert hk_equivalence(a, a)
        for fam_i, fam in enumerate(families):
            for other_i, other in enumerate(families):
                for a in fam:
                    for b in other:
                        expected = fam_i == other_i
                        assert hk_equivalence(a, b) == expected
                        assert hk_equivalence(b, a) == expected
        # transitivity across every triple of triples in one family
        import itertools

        for fam in families:
            for a, b, c in itertools.permutations(fam, 3):
                if hk_equivalence(a, b) and hk_equivalence(b, c):
                    assert hk_equivalence(a, c)


class TestFiber:
    def test_fiber_point_validation(self, lat_u3):
        plane = OrientedPositiveSubspace(lat_u3, ((0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)))
        fp = FiberPoint((1, 2, 0, 0, 0, 0), plane)
        assert fp.plane is plane
        with pytest.raises(InvariantViolation):
            FiberPoint(Y, plane)  # q(Y, e2 + 2 f2) = 3

    def test_sample_fiber_spec_examples(self, lat_u3):
        x = (1, 2, 0, 0, 0, 0)
        res = in_hk_period_image(
            lat_u3, [x, (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)], [-2]
        )
        assert res.in_image
        res = in_hk_period_image(lat_u3, [X, Y, Z], [-2])
        assert not res.in_image
        assert {w.wall_class for w in res.witnesses} == {
            (1, -1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0), (0, 0, 0, 0, 1, -1),
        }

    def test_sample_fiber_deterministic_and_consistent(self, lat_u3):
        x = (1, 2, 0, 0, 0, 0)
        runs = [sample_fiber(lat_u3, x, 12, [-2], seed=42) for _ in range(2)]
        assert [
            (s.accepted, s.point.plane.basis, tuple(w.wall_class for w in s.witnesses))
            for s in runs[0]
        ] == [
            (s.accepted, s.point.plane.basis, tuple(w.wall_class for w in s.witnesses))
            for s in runs[1]
        ]
        for s in runs[0]:
            rows = [x, s.point.plane.basis[0], s.point.plane.basis[1]]
            public = in_hk_period_image(lat_u3, rows, [-2])
            assert public.in_image == s.accepted
            assert {w.wall_class for w in public.witnesses} == {
                w.wall_class for w in s.witnesses
            }
            for row in s.point.plane.basis:
                assert lat_u3.inner(x, row) == 0

    def test_sample_fiber_rejects_negative_base(self, lat_u3):
        with pytest.raises(InvariantViolation):
            sample_fiber(lat_u3, (1, -1, 0, 0, 0, 0), 3, [-2], seed=1)
        with pytest.raises(SignatureError):
            sample_fiber(
                __import__("bbf.lattice", fromlist=["BBFLattice"]).BBFLattice(
                    [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
                ),
                (1, 1, 0),
                3,
                [-2],
                seed=1,
            )

    def test_connectivity_toy(self, lat_u3):
        rep = fiber_connectivity_experiment(
            lat_u3, (1, 2, 0, 0, 0, 0), pairs=4, steps=12, norms=[-2], seed=3
        )
        assert rep.pairs_tested == 4
        assert rep.paths_found == 4
        assert rep.planes_sampled >= 4 * 11
        assert rep.wall_hits == 0

    def test_connectivity_zero_pairs(self, lat_u3):
        rep = fiber_connectivity_experiment(
            lat_u3, (1, 2, 0, 0, 0, 0), pairs=0, steps=12, norms=[-2], seed=3
        )
        assert rep.pairs_tested == 0 and rep.paths_found == 0 and rep.planes_sampled == 0

    def test_negative_counts_rejected(self, lat_u3):
        x = (1, 2, 0, 0, 0, 0)
        assert sample_fiber(lat_u3, x, 0, [-2], seed=1) == []
        with pytest.raises(InvariantViolation):
            sample_fiber(lat_u3, x, -1, [-2], seed=1)
        for pairs, steps in ((-1, 12), (2, 0), (0, -1)):
            with pytest.raises(InvariantViolation):
                fiber_connectivity_experiment(lat_u3, x, pairs, steps, [-2], seed=3)

    def test_connectivity_deterministic(self, lat_u3):
        reps = [
            fiber_connectivity_experiment(
                lat_u3, (1, 2, 0, 0, 0, 0), pairs=3, steps=10, norms=[-2], seed=8
            )
            for _ in range(2)
        ]
        assert reps[0] == reps[1]


def test_wall_hits_detected_and_survived(lat_k3):
    # with a composite step count, straight-line paths between accepted
    # planes land exactly on walls for bases with thin support (a wall
    # class orthogonal to both endpoint u-vectors crosses at a grid
    # rational); the experiment must count the hits and still connect every
    # pair through the bump retries
    rng = random.Random(1)
    while True:
        x = tuple(rng.randint(-2, 2) for _ in range(22))
        if lat_k3.q(x) > 0:
            break
    rep = fiber_connectivity_experiment(lat_k3, x, pairs=4, steps=51, norms=[-2], seed=5)
    assert rep.paths_found == rep.pairs_tested == 4
    assert rep.wall_hits > 0
    assert rep.path_retries >= rep.wall_hits
    # a prime step count clears the same pairs without a single exact hit
    rep_prime = fiber_connectivity_experiment(lat_k3, x, pairs=4, steps=101, norms=[-2], seed=5)
    assert rep_prime.paths_found == 4
    assert rep_prime.wall_hits == 0


def test_hot_path_matches_public_operation(lat_k3, lat_u3):
    # the fiber frame (plane complements in frame coordinates) must agree
    # with the public period-image test (complements in ambient coordinates)
    rng = random.Random(77)
    while True:
        x = tuple(rng.randint(-2, 2) for _ in range(22))
        if lat_k3.q(x) > 0:
            break
    cases = [
        (lat_k3, x, [-2], 6),
        # frame-coordinate primitivity and +- deduplication: -8 classes
        # that are twice a -2 class must be dropped, each wall kept once
        (lat_u3, (1, 2, 0, 0, 0, 0), [-2, -8], 40),
    ]
    for lat, x, norms, count in cases:
        for s in sample_fiber(lat, x, count, norms, seed=13):
            rows = [x, s.point.plane.basis[0], s.point.plane.basis[1]]
            public = in_hk_period_image(lat, rows, norms)
            assert public.in_image == s.accepted
            assert public.witnesses == s.witnesses


# pinned fiber-frame seeds: they steer every sampled plane, so a change to
# them changes every fiber answer; the K3 classes are the first base
# classes of the fiber-k3 benchmark inputs for seeds 301 and 302
SEED_PAIRS = [
    ("U3", (1, 2, 0, 0, 0, 0), (1, 1, 0, 0, 0), (0, 0, 1, 1, 0)),
    (
        "K3",
        (-2, -2, 1, 1, 2, 2, 0, 0, -2, -2, -1, 0, -1, -1, 0, 0, -1, 0, -1, 0, -1, 0),
        (1, 0, 0, 0, 0, 0, 0, 0, -2, 2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
        (4, 0, 5, 5, 0, 0, 0, 0, 2, -2, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0),
    ),
    (
        "K3",
        (0, -2, -2, -2, 2, 2, 0, 2, 2, 2, 2, 1, 0, 0, -1, -1, -1, 0, -1, -1, 0, -1),
        (9, 7, 0, 0, 0, 0, -2, -2, -2, -1, 0, 1, -2, -3, 1, 1, 0, 1, 1, 0, 1),
        (4, 0, 7, 0, 0, 0, -4, -4, -4, -2, 0, 2, -4, -6, 2, 2, 0, 2, 2, 0, 2),
    ),
    # the seed space's diagonalization takes the hyperbolic-pair step
    ("U3", (1, -1, -1, -2, 1, 2), (0, 1, 1, 0, 1), (-1, 0, 0, 0, 0)),
    # a rational base class
    (
        "U3",
        (Fraction(-1, 3), Fraction(-5, 2), 1, 1, 0, Fraction(1, 7)),
        (-6, 21, 35, 7, 0),
        (8353, 637, -182, 273, 1183),
    ),
]


@pytest.mark.parametrize("name,x,seed1,seed2", SEED_PAIRS)
def test_seed_pair(lat_u3, lat_k3, name, x, seed1, seed2):
    lat = {"U3": lat_u3, "K3": lat_k3}[name]
    frame = _FiberFrame(lat, x, NormTargetSet([-2]))
    assert [tuple(s) for s in frame.seeds] == [seed1, seed2]
    assert all(type(c) is int for s in frame.seeds for c in s)
    a1, a2 = (frame.to_ambient(s) for s in frame.seeds)
    assert lat.inner(x, a1) == lat.inner(x, a2) == 0
    assert lat.q(a1) > 0 and lat.q(a2) > 0
    assert lat.inner(a1, a2) == 0
