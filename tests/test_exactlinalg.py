import ast
import gc
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bbf.enumeration import NormTargetSet, enumerate_vectors_of_norm
from bbf.exactlinalg import (
    clear_denominators,
    combine_rows,
    det_bareiss,
    det_rational,
    diagonalize_symmetric,
    dot,
    gram_restrict,
    hnf,
    hnf_with_transform,
    inertia,
    integral_gso,
    kernel_int,
    lll_gram,
    mat_mul,
    mat_vec,
    primitive_part,
    rank,
    short_vectors,
    sign_normalize,
    xgcd,
)
from bbf.lattice import InvariantViolation, e8_matrix

small_int = st.integers(min_value=-8, max_value=8)


def random_symmetric(rng, n, lo=-6, hi=6):
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(lo, hi)
    return m


@given(st.integers(-400, 400), st.integers(-400, 400))
def test_xgcd(a, b):
    g, s, t = xgcd(a, b)
    assert g >= 0
    assert s * a + t * b == g
    if a or b:
        assert a % g == 0 and b % g == 0


def test_det_bareiss_known():
    assert det_bareiss([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == 624
    assert det_bareiss([[0, 1], [1, 0]]) == -1
    assert det_bareiss([[1, 1], [1, 1]]) == 0


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_det_matches_rational(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 5)
    m = [[rng.randint(-9, 9) for _ in range(n)] for _ in range(n)]
    assert Fraction(det_bareiss(m)) == det_rational(m)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_inertia_against_diagonalization(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    m = random_symmetric(rng, n)
    p, nn, z = inertia(m)
    assert p + nn + z == n
    t, diag = diagonalize_symmetric(m)
    assert sum(1 for d in diag if d > 0) == p
    assert sum(1 for d in diag if d < 0) == nn
    assert sum(1 for d in diag if d == 0) == z
    # T m T^t really is diagonal
    full = gram_restrict(t, m)
    for i in range(n):
        for j in range(n):
            assert full[i][j] == (diag[i] if i == j else 0)


def test_inertia_basis_invariance():
    rng = random.Random(7)
    for _ in range(20):
        n = rng.randint(2, 5)
        m = random_symmetric(rng, n)
        # random unimodular transform: product of elementary operations
        u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(12):
            i, j = rng.randrange(n), rng.randrange(n)
            if i == j:
                continue
            c = rng.randint(-2, 2)
            u[i] = [a + c * b for a, b in zip(u[i], u[j])]
        transformed = gram_restrict(u, m)
        assert inertia(transformed) == inertia(m)


def test_hnf_canonical_and_row_space():
    m = [[2, 4, 4], [-6, 6, 12], [10, 4, 16]]
    h = hnf(m)
    assert h == [(2, 0, 120), (0, 2, 20), (0, 0, 156)]
    # pivots positive, entries above pivot reduced
    rng = random.Random(5)
    for _ in range(40):
        rows = [[rng.randint(-9, 9) for _ in range(4)] for _ in range(rng.randint(1, 5))]
        h = hnf(rows)
        assert rank(h) == rank(rows) == len(h)
        pivots = []
        for row in h:
            lead = next(i for i, x in enumerate(row) if x)
            assert row[lead] > 0
            pivots.append(lead)
            for above in h[: h.index(row)]:
                assert 0 <= above[lead] < row[lead]
        assert pivots == sorted(pivots)
        # idempotent
        assert hnf(list(h)) == h


def test_hnf_with_transform_edge_cases():
    assert hnf_with_transform([]) == ([], [])
    assert kernel_int([], 3) == [(1, 0, 0), (0, 1, 0), (0, 0, 1)]
    # an all-zero matrix is its own Hermite form: no rows, and U = I
    assert hnf_with_transform([[0, 0, 0], [0, 0, 0]]) == ([], [(1, 0), (0, 1)])
    # a negative first pivot is negated in H and in U alike
    assert hnf_with_transform([[-2]]) == ([(2,)], [(-1,)])
    assert hnf_with_transform([[-3, 1], [2, 5]]) == ([(1, 11), (0, 17)], [(1, 2), (2, 3)])
    rng = random.Random(11)
    for _ in range(60):
        m = [[rng.choice((0, rng.randint(-9, 9))) for _ in range(rng.randint(1, 5))]]
        m += [[rng.choice((0, rng.randint(-9, 9))) for _ in m[0]] for _ in range(rng.randint(0, 4))]
        h, u = hnf_with_transform(m)
        assert h == hnf(m)
        assert abs(det_bareiss(u)) == 1
        assert [tuple(row) for row in mat_mul(u, m)] == h + [(0,) * len(m[0])] * (len(m) - len(h))


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 10**6))
def test_kernel_saturated(seed):
    rng = random.Random(seed)
    ncols = rng.randint(2, 7)
    nrows = rng.randint(1, 3)
    m = [[rng.randint(-7, 7) for _ in range(ncols)] for _ in range(nrows)]
    k = kernel_int(m)
    assert len(k) == ncols - rank(m)
    for z in k:
        assert all(dot(row, z) == 0 for row in m)
    if k:
        # saturation: an arbitrary integer point of the span is an integer
        # combination, so stacking it changes nothing
        coeffs = [rng.randint(-5, 5) for _ in k]
        point = [sum(c * v[j] for c, v in zip(coeffs, k)) for j in range(ncols)]
        assert hnf(list(k) + [point]) == hnf(list(k))


def test_primitive_and_sign_helpers():
    assert primitive_part((4, -6, 2)) == (2, -3, 1)
    assert primitive_part((0, 0)) == (0, 0)
    assert sign_normalize((-1, 2)) == (1, -2)
    assert sign_normalize((0, -3, 1)) == (0, 3, -1)
    assert clear_denominators((Fraction(1, 2), Fraction(2, 3))) == (3, 4)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_lll_gram_congruence(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 6)
    a = [[rng.randint(-4, 4) for _ in range(n)] for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.randint(1, 4)  # triangular-ish: guarantees det != 0
        for j in range(i + 1, n):
            a[i][j] = 0
    g = [[sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    u, lam, d = lll_gram(g)
    reduced = gram_restrict(u, g)
    assert abs(det_bareiss([list(r) for r in u])) == 1
    assert det_bareiss(reduced) == det_bareiss(g)
    # the returned data is the exact integral GSO of U . g . U^T
    assert (lam, d) == integral_gso(reduced)
    # size reduction: |mu_ij| <= 1/2 with mu_ij = lam[i][j] / d[j+1]
    for i in range(n):
        for j in range(i):
            assert 2 * abs(lam[i][j]) <= d[j + 1]
    # Lovasz condition (delta = 3/4) on |b*_k|^2 = d[k+1]/d[k], multiplied
    # through by d[k-1] d[k]
    for k in range(1, n):
        assert 4 * (d[k - 1] * d[k + 1] + lam[k][k - 1] ** 2) >= 3 * d[k] ** 2


def test_integral_gso_rejects_indefinite():
    with pytest.raises(ValueError):
        integral_gso([[-2, 0], [0, 2]])


def _box_points(bounds):
    if not bounds:
        yield ()
        return
    first, *rest = bounds
    for x in range(-first, first + 1):
        for tail in _box_points(rest):
            yield (x,) + tail


def brute_short_vectors(g, bound):
    """Independent oracle: adjugate-based coordinate box, then filter."""
    n = len(g)
    det = det_bareiss(g)
    # (g^{-1})_ii = cofactor_ii / det
    bounds = []
    for i in range(n):
        minor = [
            [g[r][c] for c in range(n) if c != i] for r in range(n) if r != i
        ]
        cof = det_bareiss(minor) if n > 1 else 1
        limit = Fraction(bound) * Fraction(cof, det)
        b = 0
        while (b + 1) * (b + 1) <= limit:
            b += 1
        bounds.append(b)
    out = []
    for x in _box_points(bounds):
        if not any(x):
            continue
        norm = sum(g[i][j] * x[i] * x[j] for i in range(n) for j in range(n))
        if 0 < norm <= bound:
            out.append((x, norm))
    return sorted(out)


def shell_oracle(g, bound, ell, targets):
    """The box oracle's vectors x with 2 (x . ell)^2 - g(x) in targets, as
    (x, that value)."""
    out = []
    for x, norm in brute_short_vectors(g, bound):
        tau = 2 * dot(x, ell) ** 2 - norm
        if tau in targets:
            out.append((x, tau))
    return sorted(out)


def search_both_signs(g, bound, ell, targets):
    """short_vectors on the LLL data of g, with ell given in the coordinates
    of g, mapped back and completed by the other sign of each pair."""
    u, lam, d = lll_gram(g)
    hits = [(combine_rows(x, u), tau) for x, tau in short_vectors(lam, d, bound, mat_vec(u, ell), targets)]
    both = sorted(hits + [(tuple(-c for c in z), tau) for z, tau in hits])
    # one vector of each +- pair
    assert len(both) == 2 * len(set(z for z, _ in hits))
    return both


def random_positive_definite(rng, n):
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.randint(1, 2)
        for j in range(i):
            a[i][j] = rng.randint(-1, 1)
    return [[sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 10**6))
def test_short_vectors_against_box_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    g = random_positive_definite(rng, n)
    bound = rng.randint(1, 10)
    ell = [rng.randint(-2, 2) for _ in range(n)] if rng.random() < 0.8 else [0] * n
    # targets: some values the shell takes, and some it may not
    values = sorted({tau for _, tau in shell_oracle(g, bound, ell, range(-bound, 10**6))})
    targets = set(rng.sample(values, min(len(values), rng.randint(1, 3))))
    targets |= {rng.randint(-bound, 2 * bound) for _ in range(rng.randint(0, 2))}
    assert search_both_signs(g, bound, ell, targets) == shell_oracle(g, bound, ell, targets)


def test_short_vectors_on_huge_gram_entries():
    # V . G . V^T for a unimodular V with entries near 10^10: the same form
    # as G in a badly skewed basis, so its vectors are z . V^-1 for G's z
    g = [[2, -1, 0, 0], [-1, 2, -1, 0], [0, -1, 2, -1], [0, 0, -1, 2]]  # A4
    big = 10**10 + 7
    v = [[1, 0, 0, 0], [big, 1, 0, 0], [3 * big, big + 1, 1, 0], [big, -big, 5 * big, 1]]
    assert abs(det_bareiss(v)) == 1
    gv = gram_restrict(v, g)
    assert max(abs(x) for row in gv for x in row) >= 10**20
    ell = [1, -2, 0, 1]
    ell_v = mat_vec(v, ell)  # (z . V) . ell = z . (V . ell)
    values = {tau for _, tau in shell_oracle(g, 8, ell, range(-8, 10**6))}
    targets = set(sorted(values)[::2])
    hits = search_both_signs(gv, 8, ell_v, targets)
    assert sorted((combine_rows(z, v), tau) for z, tau in hits) == shell_oracle(g, 8, ell, targets)
    assert hits


def _record_branches(monkeypatch):
    """Wrap the last level of the search: the set of level-0 branches taken
    ("two roots", "double root", "linear", "walk", "empty interval",
    "points read")."""
    import bbf.exactlinalg as xl

    seen = set()
    solve, descend = xl._last_coordinate, xl._descend

    def solve_traced(a, b, k):
        roots = solve(a, b, k)
        if roots is None:
            seen.add("walk")
        elif a and len(roots) == 2:
            seen.add("two roots")
        elif a and roots and b * b == a * k:
            seen.add("double root")
        elif not a and roots:
            seen.add("linear")
        return roots

    def descend_traced(lam, d, bound, ell, targets, x, results, j, t_num, t_den, *rest):
        if j == 0:
            # the interval of x0 is (d1 x0 + c)^2 <= room
            d1, room = d[1], d[1] * t_num // t_den
            c = sum(lam[i][0] * x[i] for i in range(1, len(x)))
            s = d1 * (-c // d1) + c
            if s * s > room and (s + d1) ** 2 > room:
                seen.add("empty interval")
            elif room < d1 * d1:
                seen.add("points read")
        descend(lam, d, bound, ell, targets, x, results, j, t_num, t_den, *rest)

    monkeypatch.setattr(xl, "_last_coordinate", solve_traced)
    monkeypatch.setattr(xl, "_descend", descend_traced)
    return seen


@pytest.mark.parametrize(
    "g, bound, ell, targets, branches",
    [
        # |x| = 1 in Z^2: x0 = +-1 over x1 = 0, and over x1 = 1 the one
        # point x0 = 0 is read
        ([[1, 0], [0, 1]], 1, [0, 0], {-1}, {"two roots", "points read"}),
        # phi(b0) = 2 l(b0)^2: the quadratic term vanishes
        ([[2, 1], [1, 3]], 20, [1, 0], {-3, -8, -11, 4}, {"linear"}),
        # x1 = 1 spends the whole budget, and level 0 has no point at its
        # center -1/2
        ([[4, 2], [2, 5]], 4, [0, 0], {-4}, {"empty interval", "two roots"}),
        # |x| = 1 in Z^2 with room for three points over x1 = 1: the
        # double root x0 = 0
        ([[1, 0], [0, 1]], 2, [0, 0], {-1}, {"two roots", "double root"}),
    ],
)
def test_short_vectors_level0_branches(monkeypatch, g, bound, ell, targets, branches):
    seen = _record_branches(monkeypatch)
    hits = search_both_signs(g, bound, ell, targets)
    assert hits == shell_oracle(g, bound, ell, targets)
    assert hits
    assert branches <= seen, seen


@pytest.mark.parametrize("n", [3, 5, 12])
def test_short_vectors_walks_an_isotropic_first_vector(monkeypatch, n):
    # U + <-2> at h = (n, 1, 0): phi = 2 q(z,h)^2 - q(h,h) q(z,z) has phi(e0) = 2
    # with e0 isotropic and q(e0,h) = 1, so level 0's equation has a = 0, and
    # over x = (0, 0, +-1) also b = 0 and it holds for every x0: every
    # (x0, 0, +-1) has norm -2.  The walk there must find the wall (0, 0, 1).
    # The segment search from h runs on this phi; h is on that wall.  Its
    # far endpoint (1, 1, 0) raises the bound so that level 0 holds more
    # than the two points it would read one by one.
    from bbf.enumeration import OnWallError, separating_walls
    from bbf.lattice import BBFLattice

    gram = [[0, 1, 0], [1, 0, 0], [0, 0, -2]]
    lat = BBFLattice(gram)
    h = (n, 1, 0)
    seen = _record_branches(monkeypatch)
    with pytest.raises(OnWallError) as err:
        separating_walls(lat, h, (1, 1, 0), [-2])
    walls = list(err.value.walls)
    assert "walk" in seen
    # box oracle on the same ellipsoid phi(z) <= 2 q(h,h)
    gh = mat_vec(gram, h)
    a = dot(h, gh)
    phi = [[2 * gh[i] * gh[j] - a * gram[i][j] for j in range(3)] for i in range(3)]
    oracle = sorted(
        sign_normalize(z) for z, _ in brute_short_vectors(phi, 2 * a)
        if dot(z, gh) == 0 and dot(z, mat_vec(gram, z)) == -2 and primitive_part(z) == z
        and sign_normalize(z) == z
    )
    assert [w.wall_class for w in walls] == oracle == [(0, 0, 1)]


def test_short_vectors_leaves_no_reference_cycle():
    # a search that referred to itself would keep its result list alive
    # until the cyclic collector runs
    _, lam, d = lll_gram([[2, 1, 0], [1, 2, 1], [0, 1, 2]])
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        # ell = 0: the shell values are -phi(x), here every norm up to 12
        hits = short_vectors(lam, d, 12, [0, 0, 0], range(-12, 0))
        assert len(hits) == 43  # A3: (12 + 6 + 24 + 12 + 24 + 8) / 2
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_invalid_input_raises_typed_errors():
    with pytest.raises(ValueError):
        dot((1, 2), (1,))
    with pytest.raises(ValueError):
        inertia([[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        diagonalize_symmetric([[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        kernel_int([])
    with pytest.raises(ValueError):
        det_bareiss([[1, 2, 3], [4, 5, 6]])
    # integer Grams only: a Fraction entry must not be truncated silently
    with pytest.raises(TypeError):
        lll_gram([[Fraction(1, 2), 0], [0, 1]])
    # nor a norm target that is not an integer
    for bad in (Fraction(-5, 2), -2.7, "abc"):
        with pytest.raises(InvariantViolation):
            NormTargetSet([bad])
    with pytest.raises(InvariantViolation):
        enumerate_vectors_of_norm(e8_matrix(-1), Fraction(-5, 2))


OPTIMIZED_CHECKS = """
from bbf.exactlinalg import det_bareiss, dot, lll_gram
for call in (
    lambda: dot((1, 2), (1,)),
    lambda: lll_gram([[0, 1], [1, 0]]),
    lambda: det_bareiss([[1, 2, 3], [4, 5, 6]]),
):
    try:
        call()
    except ValueError:
        print("ValueError")
"""


def test_checks_hold_under_python_O():
    # bare asserts vanish under -O; these checks must not
    src = str(Path(__file__).resolve().parents[1] / "src")
    paths = [src, os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run(
        [sys.executable, "-O", "-c", OPTIMIZED_CHECKS],
        capture_output=True, text=True, env=env, timeout=60, check=True,
    )
    assert done.stdout.split() == ["ValueError"] * 3


def test_no_assert_in_package():
    # -O strips asserts, so no decision of the package may rest on one
    package = Path(__file__).resolve().parents[1] / "src" / "bbf"
    found = [
        "%s:%d" % (path.name, node.lineno)
        for path in sorted(package.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(), str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def test_package_imports_only_the_standard_library():
    # the package has no runtime dependency outside the standard library
    package = Path(__file__).resolve().parents[1] / "src" / "bbf"
    found = []
    for path in sorted(package.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                names = [node.module]
            else:
                continue
            found += [
                "%s:%d %s" % (path.name, node.lineno, name)
                for name in names
                if name.split(".")[0] not in sys.stdlib_module_names
            ]
    assert found == []


def test_e8_has_240_roots():
    assert len(enumerate_vectors_of_norm(e8_matrix(-1), -2)) == 240
