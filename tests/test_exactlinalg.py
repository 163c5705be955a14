import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from bbf.exactlinalg import (
    clear_denominators,
    det_bareiss,
    det_rational,
    diagonalize_symmetric,
    dot,
    gram_restrict,
    hnf,
    inertia,
    integral_gso,
    kernel_int,
    lll_gram,
    primitive_part,
    rank,
    short_vectors,
    sign_normalize,
    vectors_of_norms,
    xgcd,
)

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


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10**6))
def test_short_vectors_against_box_oracle(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 4)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        a[i][i] = rng.randint(1, 2)
        for j in range(i):
            a[i][j] = rng.randint(-1, 1)
    g = [[sum(a[k][i] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    bound = rng.randint(1, 10)
    assert sorted(short_vectors(g, bound)) == brute_short_vectors(g, bound)


def test_invalid_input_raises_typed_errors():
    with pytest.raises(ValueError):
        dot((1, 2), (1,))
    with pytest.raises(ValueError):
        inertia([[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        diagonalize_symmetric([[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        vectors_of_norms([[2]], [0, 2])
    with pytest.raises(ValueError):
        vectors_of_norms([[2]], [])
    with pytest.raises(ValueError):
        kernel_int([])
    with pytest.raises(ValueError):
        det_bareiss([[1, 2, 3], [4, 5, 6]])
    # integer Grams only: a Fraction entry must not be truncated silently
    with pytest.raises(TypeError):
        short_vectors([[Fraction(1, 2), 0], [0, 1]], 4)


OPTIMIZED_CHECKS = """
from bbf.exactlinalg import det_bareiss, dot, short_vectors
for call in (
    lambda: dot((1, 2), (1,)),
    lambda: short_vectors([[0, 1], [1, 0]], 4),
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


def test_e8_has_240_roots():
    from bbf.lattice import e8_matrix

    table = vectors_of_norms(e8_matrix(1), [2])
    assert len(table[2]) == 240
