"""Differential tests of the exact kernels against sympy, an independent
implementation of the same algebra.  Skipped where sympy is not installed;
the package itself never imports it."""
from fractions import Fraction
from itertools import combinations
from math import gcd

import pytest
from hypothesis import given, settings, strategies as st

sympy = pytest.importorskip("sympy")
from sympy.matrices.normalforms import hermite_normal_form  # noqa: E402

from bbf.exactlinalg import (  # noqa: E402
    clear_denominators,
    det_bareiss,
    diagonalize_symmetric,
    gauss_jordan,
    hnf,
    inertia,
    kernel_int,
    lll_gram,
    primitive_part,
    rank,
)
from oracles import diagonalize_rational  # noqa: E402

SMALL = settings(max_examples=40, deadline=None, derandomize=True)
entry = st.integers(-6, 6)


@st.composite
def int_matrices(draw, max_rows=4, max_cols=5):
    """Small integer matrices; some with a dependent row, a zero row or a
    zero column, so that singular and degenerate input is common."""
    rows, cols = draw(st.integers(1, max_rows)), draw(st.integers(1, max_cols))
    m = [[draw(entry) for _ in range(cols)] for _ in range(rows)]
    kind = draw(st.sampled_from(("plain", "dependent", "zero row", "zero column")))
    if kind == "dependent" and rows > 1:
        c1, c2 = draw(entry), draw(entry)
        m[-1] = [c1 * a + c2 * b for a, b in zip(m[0], m[1])]
    elif kind == "zero row":
        m[draw(st.integers(0, rows - 1))] = [0] * cols
    elif kind == "zero column":
        j = draw(st.integers(0, cols - 1))
        for row in m:
            row[j] = 0
    return m


@st.composite
def symmetric_matrices(draw, max_n=5):
    """Small symmetric integer matrices; some congruent to a diagonal with
    zeros (degenerate), through a random integer change of basis."""
    n = draw(st.integers(1, max_n))
    if draw(st.booleans()):
        m = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                m[i][j] = m[j][i] = draw(entry)
        return m
    diag = [draw(st.integers(-3, 3)) for _ in range(n)]
    b = [[draw(st.integers(-2, 2)) for _ in range(n)] for _ in range(n)]
    return [[sum(b[k][i] * diag[k] * b[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


def sign_changes(coeffs):
    signs = [c > 0 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


@SMALL
@given(st.integers(0, 5).flatmap(
    lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_det_bareiss_matches_sympy(m):
    assert det_bareiss(m) == (sympy.Matrix(m).det() if m else 1)


@SMALL
@given(int_matrices())
def test_hnf_matches_sympy(m):
    # sympy puts its pivots at the last columns: reverse the columns on the
    # way in and out, and the rows on the way out
    rev = sympy.Matrix([row[::-1] for row in m])
    if rev.rank() == 0:
        assert hnf(m) == []
        return
    w = hermite_normal_form(rev.T).T
    expect = [tuple(int(x) for x in reversed(list(w.row(i)))) for i in range(w.rows)][::-1]
    assert hnf(m) == expect


@SMALL
@given(int_matrices(), st.integers(1, 4))
def test_rank_matches_sympy(m, den):
    rational = [[Fraction(x, den + i) for i, x in enumerate(row)] for row in m]
    assert rank(rational) == sympy.Matrix(m).rank()


@SMALL
@given(symmetric_matrices())
def test_inertia_matches_the_characteristic_polynomial(m):
    # a symmetric matrix has only real eigenvalues, so Descartes' rule of
    # signs counts the positive ones exactly, and p(-x) the negative ones
    coeffs = [int(c) for c in sympy.Matrix(m).charpoly().all_coeffs()]
    n = len(m)
    zero = next(i for i, c in enumerate(reversed(coeffs)) if c != 0)
    flipped = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]
    assert inertia(m) == (sign_changes(coeffs), sign_changes(flipped), zero)


@SMALL
@given(int_matrices())
def test_gauss_jordan_rows_are_a_multiple_of_the_rref(m):
    rows, pivots, d = gauss_jordan(m)
    reduced, expect = sympy.Matrix(m).rref()
    assert pivots == list(expect)
    # one common scale d > 0 for every row
    scale = abs(d)
    assert scale > 0
    assert rows == [[scale * x for x in reduced.row(i)] for i in range(len(pivots))]


@SMALL
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_gauss_jordan_determinant_matches_sympy(m):
    _, pivots, d = gauss_jordan(m)
    assert (d if len(pivots) == len(m) else 0) == sympy.Matrix(m).det()


@SMALL
@given(symmetric_matrices())
def test_diagonalize_symmetric_matches_sympy_and_the_rational_route(m):
    t, diag = diagonalize_symmetric(m)
    mt = sympy.Matrix(t)
    assert mt * sympy.Matrix(m) * mt.T == sympy.diag(*diag)
    # the diagonal signs are sympy's inertia, counted as in the test below
    coeffs = [int(c) for c in sympy.Matrix(m).charpoly().all_coeffs()]
    n = len(m)
    flipped = [c * (-1) ** (n - i) for i, c in enumerate(coeffs)]
    assert sum(d > 0 for d in diag) == sign_changes(coeffs)
    assert sum(d < 0 for d in diag) == sign_changes(flipped)
    # each integer row is a positive multiple of the rational one
    t_rat, diag_rat = diagonalize_rational(m)
    assert [primitive_part(row) for row in t] == [clear_denominators(row) for row in t_rat]
    assert [(d > 0) - (d < 0) for d in diag] == [(d > 0) - (d < 0) for d in diag_rat]


@SMALL
@given(int_matrices(max_cols=6))
def test_kernel_int_is_the_saturated_kernel(m):
    ncols = len(m[0])
    k = kernel_int(m)
    assert len(k) == ncols - sympy.Matrix(m).rank()
    assert all(sum(a * b for a, b in zip(row, z)) == 0 for row in m for z in k)
    if not k:
        return
    # the rational kernel: sympy's null space lies in the span of k
    null = [list(v) for v in sympy.Matrix(m).nullspace()]
    assert sympy.Matrix([list(z) for z in k] + null).rank() == len(k)
    # saturated: the maximal minors of k have gcd 1
    g = 0
    for cols in combinations(range(ncols), len(k)):
        g = gcd(g, int(sympy.Matrix([[z[j] for j in cols] for z in k]).det()))
    assert g == 1


@SMALL
@given(st.integers(1, 5).flatmap(
    lambda n: st.lists(st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n)))
def test_lll_gram_invariants(b):
    # G = B B^T is positive definite when B is nonsingular
    bm = sympy.Matrix(b)
    if bm.det() == 0:
        return
    g = bm * bm.T
    u, lam, d = lll_gram(g.tolist())
    um = sympy.Matrix(u)
    assert abs(um.det()) == 1
    # Gram-Schmidt of the reduced Gram by sympy: U G U^T = L D L^T
    low, diag = (um * g * um.T).LDLdecomposition()
    n = len(b)
    half = sympy.Rational(1, 2)
    for i in range(n):
        assert diag[i, i] == sympy.Rational(d[i + 1], d[i])
        for j in range(i):
            assert low[i, j] == sympy.Rational(lam[i][j], d[j + 1])
            assert abs(low[i, j]) <= half
    for k in range(1, n):
        assert diag[k, k] >= (sympy.Rational(3, 4) - low[k, k - 1] ** 2) * diag[k - 1, k - 1]
