"""Acceptance suite: one test per criterion, each printing a PASS line with
its measured runtime (run with `pytest tests/test_acceptance.py -v -s`).

Expected values are either fixed by hand-checkable arithmetic or computed by
the independent oracles defined in this file; the production code path is
never used to generate its own expectations.
"""
import itertools
import random
import time
from fractions import Fraction

from bbf.catalog import builtin_catalog
from bbf.enumeration import (
    NormTargetSet,
    chamber_membership,
    enumerate_vectors_of_norm,
    separating_walls,
    wall_classes_through,
)
from bbf.exactlinalg import (
    content,
    det_bareiss,
    gram_restrict,
    mat_vec,
    sign_normalize,
)
from bbf.lattice import BBFLattice
from bbf.periods import (
    HKTripleClasses,
    TwistorDirection,
    fiber_connectivity_experiment,
    hk_equivalence,
    in_hk_period_image,
    in_symplectic_period_image,
    twistor_member,
)

X = (1, 1, 0, 0, 0, 0)
Y = (0, 0, 1, 1, 0, 0)
Z = (0, 0, 0, 0, 1, 1)


def _report(num: int, detail: str, started: float) -> None:
    print("ACCEPTANCE %d PASS: %s (%.2fs)" % (num, detail, time.perf_counter() - started))


# -- criterion 1 ---------------------------------------------------------------

def _random_negative_definite(rng):
    while True:
        n = rng.randint(1, 4)
        a = [[0] * n for _ in range(n)]
        for i in range(n):
            a[i][i] = rng.choice((1, 1, 2))
            for j in range(i):
                a[i][j] = rng.randint(-1, 1)
        g = [
            [-sum(a[i][k] * a[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)
        ]
        if max(abs(x) for row in g for x in row) <= 10:
            return g


def _box_oracle(gram, targets):
    """Naive box search.  The per-coordinate bound b_i is M / (last LDL
    pivot when coordinate i is eliminated last), computed here through the
    cofactor identity: that pivot is det / cofactor_ii of the flipped form."""
    n = len(gram)
    p = [[-x for x in row] for row in gram]
    det = det_bareiss(p)
    biggest = max(-t for t in targets)
    bounds = []
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
        norm = sum(p[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if -norm in table:
            table[-norm].append(x)
    return {t: sorted(v) for t, v in table.items()}


def test_acceptance_1_enumeration_oracle_equivalence():
    started = time.perf_counter()
    rng = random.Random(20260801)
    targets = [-2, -4, -6]
    for _ in range(100):
        g = _random_negative_definite(rng)
        expected = _box_oracle(g, targets)
        for t in targets:
            assert enumerate_vectors_of_norm(g, t) == expected[t]
    _report(1, "100 random negative-definite grams match the box oracle on norms -2,-4,-6", started)


# -- criterion 2 ---------------------------------------------------------------

def test_acceptance_2_hk_period_image(lat_u3):
    started = time.perf_counter()
    rejected = in_hk_period_image(lat_u3, [X, Y, Z], [-2])
    assert not rejected.in_image
    assert {w.wall_class for w in rejected.witnesses} == {
        (1, -1, 0, 0, 0, 0), (0, 0, 1, -1, 0, 0), (0, 0, 0, 0, 1, -1),
    }
    accepted = in_hk_period_image(
        lat_u3, [(1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)], [-2]
    )
    assert accepted.in_image and not accepted.witnesses
    _report(2, "unit-norm 3-space rejected with the three expected witnesses; doubled one accepted", started)


# -- criterion 3 ---------------------------------------------------------------

def test_acceptance_3_symplectic_period_image(lat_k3):
    started = time.perf_counter()
    rng = random.Random(3)
    agree = 0
    for _ in range(1000):
        v = tuple(
            Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(22)
        )
        assert in_symplectic_period_image(lat_k3, v) == (lat_k3.inner(v, v) > 0)
        agree += 1
    _report(3, "%d random rational classes: image test == positivity of the form" % agree, started)


# -- criterion 4 ---------------------------------------------------------------

def _proven_box_separating(lat, u, v, norms):
    """Brute-force separating-wall oracle over the coordinate box implied by
    the Cauchy-Schwarz segment bound (complete by the same argument as the
    production enumeration, but scanning naively and testing the defining
    predicate directly).  The segment bound
    B(t) = q(u,w_t)^2 / q(w_t,w_t) - q(u,u) is largest at t = 1."""
    big_m = max(-m for m in norms)
    quu = Fraction(lat.q(u))
    b_max = Fraction(lat.inner(u, v)) ** 2 / lat.q(v) - quu
    gu = mat_vec(lat.gram, u)
    n = lat.rank
    phi = [
        [2 * Fraction(gu[i]) * Fraction(gu[j]) - quu * lat.gram[i][j] for j in range(n)]
        for i in range(n)
    ]
    phi_bound = 2 * big_m * b_max + big_m * quu
    det = det_bareiss([[x.numerator for x in row] for row in phi]) if all(
        x.denominator == 1 for row in phi for x in row
    ) else None
    bounds = []
    for i in range(n):
        minor = [[phi[r][c] for c in range(n) if c != i] for r in range(n) if r != i]
        from bbf.exactlinalg import det_rational

        cof = det_rational(minor) if n > 1 else Fraction(1)
        limit = phi_bound * cof / det_rational(phi)
        b = 0
        while (b + 1) ** 2 <= limit:
            b += 1
        bounds.append(b)
    out = {}
    for z in itertools.product(*[range(-b, b + 1) for b in bounds]):
        if not any(z):
            continue
        if lat.q(z) not in norms or content(z) != 1:
            continue
        qzu, qzv = lat.inner(z, u), lat.inner(z, v)
        if qzu * qzv < 0:
            out[sign_normalize(z)] = Fraction(qzu) / (qzu - qzv)
    return out


def test_acceptance_4_wall_chamber_suite(lat_hyp):
    started = time.perf_counter()
    assert chamber_membership(lat_hyp, (3, 4, 1), [-2]).interior
    on = chamber_membership(lat_hyp, (1, 1, 0), [-2])
    assert not on.interior
    assert {w.wall_class for w in on.walls} == {(1, -1, 0), (0, 0, 1)}
    production = separating_walls(lat_hyp, (3, 4, 1), (4, 3, -1), [-2])
    got = {w.wall_class: w.crossing_parameter for w in production}
    assert {(0, 0, 1), (1, -1, 0)} <= set(got)
    oracle = _proven_box_separating(lat_hyp, (3, 4, 1), (4, 3, -1), (-2,))
    assert got == oracle
    _report(4, "chamber memberships exact; separating walls equal the proven-box oracle", started)


# -- criterion 5 ---------------------------------------------------------------

def _random_interior(lat, rng, norms):
    while True:
        h = tuple(rng.randint(-9, 9) for _ in range(lat.rank))
        if lat.q(h) <= 0:
            continue
        if not wall_classes_through(lat, h, norms):
            return h


def test_acceptance_5_wall_set_algebra(lat_hyp):
    started = time.perf_counter()
    rng = random.Random(55)
    norms = NormTargetSet([-2])
    for _ in range(50):
        pts = []
        while len(pts) < 3:
            h = _random_interior(lat_hyp, rng, norms)
            if all(lat_hyp.inner(h, p) > 0 for p in pts):
                pts.append(h)
        u, v, w = pts
        suv = {r.wall_class for r in separating_walls(lat_hyp, u, v, norms)}
        svw = {r.wall_class for r in separating_walls(lat_hyp, v, w, norms)}
        suw = {r.wall_class for r in separating_walls(lat_hyp, u, w, norms)}
        assert suv ^ svw == suw
    _report(5, "symmetric-difference identity exact on 50 random interior triples", started)


# -- criterion 6 ---------------------------------------------------------------

def test_acceptance_6_fujiki_consistency():
    started = time.perf_counter()
    cat = builtin_catalog()
    k3 = cat["K3"]
    lat = k3.lattice()
    rng = random.Random(6)
    for _ in range(100):
        v = [rng.randint(-9, 9) for _ in range(22)]
        assert k3.fujiki_top(v) == lat.inner(v, v)
    synth = cat["toy-n2c3"]
    lat2 = synth.lattice()
    for _ in range(100):
        v = [rng.randint(-9, 9) for _ in range(6)]
        assert synth.fujiki_top(v) == 3 * lat2.inner(v, v) ** 2
    _report(6, "degree-2 identity on K3 and c=3, n=2 fourth-power law, 100 classes each", started)


# -- criterion 7 ---------------------------------------------------------------

def test_acceptance_7_twistor_suite(lat_u3):
    started = time.perf_counter()
    triple = HKTripleClasses(lat_u3, X, Y, Z)
    rng = random.Random(7)
    for _ in range(200):
        d = tuple(Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(3))
        if not any(d):
            continue
        fiber = twistor_member(triple, TwistorDirection(*d))
        a, b, c = d
        assert lat_u3.q(fiber.omega) == (a * a + b * b + c * c) * triple.norm
        for row in fiber.plane.basis:
            assert lat_u3.inner(fiber.omega, row) == 0
    axis = twistor_member(triple, TwistorDirection(1, 0, 0))
    assert axis.omega == X and axis.plane.basis == (Y, Z)
    axis = twistor_member(triple, TwistorDirection(0, 1, 0))
    from bbf.lattice import OrientationRelation, OrientedPositiveSubspace, orientation_relation

    assert axis.omega == Y
    assert orientation_relation(
        axis.plane, OrientedPositiveSubspace(lat_u3, (Z, X))
    ) is OrientationRelation.SAME_ORIENTED_SUBSPACE
    axis = twistor_member(triple, TwistorDirection(0, 0, 1))
    assert axis.omega == Z and axis.plane.basis == (X, Y)
    _report(7, "norm identity and exact orthogonality on 200 directions; axis cases literal", started)


# -- criterion 8 ---------------------------------------------------------------

def test_acceptance_8_fiber_connectivity(lat_k3):
    started = time.perf_counter()
    rng = random.Random(2026)
    while True:
        x = tuple(rng.randint(-2, 2) for _ in range(22))
        if lat_k3.q(x) > 0:
            break
    report = fiber_connectivity_experiment(
        lat_k3, x, pairs=100, steps=101, norms=[-2], seed=88
    )
    assert report.pairs_tested == 100
    assert report.paths_found == 100
    assert report.wall_hits == 0
    assert report.planes_sampled >= 10_000
    _report(
        8,
        "100/100 accepted pairs connected, %d intermediate planes, 0 wall hits, %d geometric rejections"
        % (report.planes_sampled, report.geometric_rejections),
        started,
    )


# -- criterion 9 ---------------------------------------------------------------

def test_acceptance_9_invariance_suite(lat_u, lat_hyp, lat_k3, lat_u3):
    started = time.perf_counter()
    rng = random.Random(99)

    # signature invariance under 20 random unimodular basis changes per lattice
    for lat in (lat_u, lat_hyp, lat_u3, lat_k3):
        n = lat.rank
        base = lat.signature()
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
            assert BBFLattice(gram_restrict(u, lat.gram)).signature() == base

    # scaling invariance of the chamber and image predicates
    norms = NormTargetSet([-2])
    for _ in range(20):
        lam = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        h = _random_interior(lat_hyp, rng, norms)
        scaled = tuple(lam * c for c in h)
        assert chamber_membership(lat_hyp, h, norms).interior == \
            chamber_membership(lat_hyp, scaled, norms).interior
        v = tuple(rng.randint(-9, 9) for _ in range(6))
        assert in_symplectic_period_image(lat_u3, v) == \
            in_symplectic_period_image(lat_u3, tuple(lam * c for c in v))
    rows = [(1, 2, 0, 0, 0, 0), (0, 0, 1, 2, 0, 0), (0, 0, 0, 0, 1, 2)]
    lam = Fraction(5, 3)
    assert in_hk_period_image(lat_u3, rows, norms).in_image == in_hk_period_image(
        lat_u3, [tuple(lam * c for c in r) for r in rows], norms
    ).in_image

    # hk_equivalence is an equivalence relation on 50 random triples
    def rotation():
        while True:
            p, q, r, s = (Fraction(rng.randint(-4, 4)) for _ in range(4))
            nn = p * p + q * q + r * r + s * s
            if nn:
                break
        return [
            [(p * p + q * q - r * r - s * s) / nn, 2 * (q * r - p * s) / nn, 2 * (q * s + p * r) / nn],
            [2 * (q * r + p * s) / nn, (p * p - q * q + r * r - s * s) / nn, 2 * (r * s - p * q) / nn],
            [2 * (q * s - p * r) / nn, 2 * (r * s + p * q) / nn, (p * p - q * q - r * r + s * s) / nn],
        ]

    triples = []
    for idx in range(50):
        k = 1 + idx % 5
        base = HKTripleClasses(
            lat_u3, (1, k, 0, 0, 0, 0), (0, 0, 1, k, 0, 0), (0, 0, 0, 0, 1, k)
        )
        lam_i = rng.randint(1, 3)
        scaled = HKTripleClasses(
            lat_u3,
            tuple(lam_i * v for v in base.x),
            tuple(lam_i * v for v in base.y),
            tuple(lam_i * v for v in base.z),
        )
        rot = rotation()
        frame = (scaled.x, scaled.y, scaled.z)
        rows_r = [
            tuple(sum(rot[i][j] * Fraction(col) for j, col in enumerate(cols)) for cols in zip(*frame))
            for i in range(3)
        ]
        triples.append(HKTripleClasses(lat_u3, *rows_r))
    eq = [[hk_equivalence(a, b) for b in triples] for a in triples]
    for i in range(50):
        assert eq[i][i]
        for j in range(50):
            assert eq[i][j] == eq[j][i]
            for k in range(50):
                if eq[i][j] and eq[j][k]:
                    assert eq[i][k]
    _report(9, "signature/scaling invariance and equivalence-relation laws all exact", started)
