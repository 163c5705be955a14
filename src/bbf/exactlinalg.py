"""Exact linear algebra over the integers and rationals.

All routines are free of floating point: Fraction (or plain int) in,
Fraction/int out.  Matrices are lists/tuples of row sequences; nothing
here mutates its arguments unless explicitly stated.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from operator import index, mul
from typing import Iterable, Sequence

Rational = int | Fraction
IntVec = tuple[int, ...]
RatVec = tuple[Rational, ...]


def vec_int(v: Iterable[int]) -> IntVec:
    return tuple(int(x) for x in v)


def vec_rat(v: Iterable[Rational]) -> RatVec:
    out = []
    for x in v:
        f = Fraction(x)
        out.append(int(f) if f.denominator == 1 else f)
    return tuple(out)


def dot(u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
    """Exact dot product; ValueError on a length mismatch."""
    if len(u) != len(v):
        raise ValueError("dimension mismatch in dot product: %d != %d" % (len(u), len(v)))
    return sum(map(mul, u, v))


def combine_rows(coeffs: Sequence[Rational], rows: Sequence[Sequence[Rational]]) -> tuple[Rational, ...]:
    """The row combination sum_i coeffs[i] * rows[i] (rows non-empty)."""
    return tuple([sum(map(mul, coeffs, col)) for col in zip(*rows)])


def mat_vec(m: Sequence[Sequence[Rational]], v: Sequence[Rational]) -> list[Rational]:
    return [dot(row, v) for row in m]


def gram_restrict(basis: Sequence[Sequence[Rational]], gram: Sequence[Sequence[Rational]]) -> list[list[Rational]]:
    """basis . gram . basis^T for a set of row vectors."""
    gb = [mat_vec(gram, row) for row in basis]
    return [[dot(row, g) for g in gb] for row in basis]


def is_symmetric(m: Sequence[Sequence[Rational]]) -> bool:
    n = len(m)
    if any(len(row) != n for row in m):
        return False
    return all(m[i][j] == m[j][i] for i in range(n) for j in range(i + 1, n))


def content(v: Sequence[int]) -> int:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g


def primitive_part(v: Sequence[int]) -> IntVec:
    """Divide out the gcd of the coordinates (zero vector unchanged)."""
    g = content(v)
    if g <= 1:
        return vec_int(v)
    return tuple(x // g for x in v)


def sign_normalize(v: Sequence[int]) -> IntVec:
    """Flip sign so the first nonzero coordinate is positive."""
    for x in v:
        if x > 0:
            return vec_int(v)
        if x < 0:
            return tuple(-y for y in v)
    return vec_int(v)


def _integral_multiple(v: Sequence[Rational]) -> tuple[int, list[int]]:
    """(den, den * v) with den the lcm of the denominators of v."""
    fracs = [Fraction(x) for x in v]
    den = lcm(*(f.denominator for f in fracs))
    return den, [int(f * den) for f in fracs]


def clear_denominators(v: Sequence[Rational]) -> IntVec:
    """Scale a rational vector by a positive integer to a primitive integer vector."""
    return primitive_part(_integral_multiple(v)[1])


# ---------------------------------------------------------------------------
# determinants, inertia, row reduction
# ---------------------------------------------------------------------------

def det_bareiss(m: Sequence[Sequence[int]]) -> int:
    """Fraction-free determinant of an integer matrix (Bareiss elimination)."""
    n = len(m)
    if n == 0:
        return 1
    a = [list(map(int, row)) for row in m]
    if any(len(row) != n for row in a):
        raise ValueError("determinant needs a square matrix")
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            for i in range(k + 1, n):
                if a[i][k] != 0:
                    a[k], a[i] = a[i], a[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = a[k][k]
        for i in range(k + 1, n):
            row_i = a[i]
            row_k = a[k]
            aik = row_i[k]
            for j in range(k + 1, n):
                row_i[j] = (pivot * row_i[j] - aik * row_k[j]) // prev
            row_i[k] = 0
        prev = pivot
    return sign * a[n - 1][n - 1]


def det_rational(m: Sequence[Sequence[Rational]]) -> Fraction:
    """Determinant of a rational matrix, via row scaling + Bareiss."""
    scale = Fraction(1)
    rows = []
    for row in m:
        den, cleared = _integral_multiple(row)
        scale /= den
        rows.append(cleared)
    return scale * det_bareiss(rows)


def inertia(m: Sequence[Sequence[Rational]]) -> tuple[int, int, int]:
    """Counts (positive, negative, zero) of eigenvalue signs of a symmetric
    matrix: the signs of its exact congruence diagonalization.

    Never touches floating point, so it is safe arbitrarily close to
    degeneracy.
    """
    _, diag = diagonalize_symmetric(m)
    pos = sum(1 for d in diag if d > 0)
    neg = sum(1 for d in diag if d < 0)
    return pos, neg, len(diag) - pos - neg


def diagonalize_symmetric(m: Sequence[Sequence[Rational]]) -> tuple[list[list[Fraction]], list[Fraction]]:
    """Congruence diagonalization of a symmetric matrix (Lagrange
    reduction): returns (T, diag) with T . m . T^T equal to the diagonal
    matrix with entries diag.

    Rows of T express the diagonalizing basis in the original coordinates.
    """
    if not is_symmetric(m):
        raise ValueError("diagonalization needs a symmetric matrix")
    n = len(m)
    a = [[Fraction(x) for x in row] for row in m]
    t = [[Fraction(1) if i == j else Fraction(0) for j in range(n)] for i in range(n)]
    live = list(range(n))
    order: list[int] = []
    while live:
        p = next((i for i in live if a[i][i] != 0), None)
        if p is None:
            # all diagonal entries vanish; hunt for an off-diagonal entry
            hyp = next(
                ((i, j) for k, i in enumerate(live) for j in live[k + 1:] if a[i][j] != 0),
                None,
            )
            if hyp is None:
                order.extend(live)
                break
            p, j = hyp
            # congruence e_p -> e_p + e_j turns the 2x2 hyperbolic block
            # into one with a nonzero diagonal entry
            for k in live:
                a[p][k] += a[j][k]
            for k in live:
                a[k][p] += a[k][j]
            t[p] = [x + y for x, y in zip(t[p], t[j])]
        live.remove(p)
        order.append(p)
        # e_i -> e_i - f e_p clears row and column p; the live block becomes
        # its Schur complement, which stays symmetric
        d, row_p, t_p = a[p][p], a[p], t[p]
        for i in live:
            f = a[i][p] / d
            if f:
                row_i = a[i]
                for j in live:
                    row_i[j] -= f * row_p[j]
                t[i] = [x - f * y if y else x for x, y in zip(t[i], t_p)]
    return [t[p] for p in order], [a[p][p] for p in order]


def rref(m: Sequence[Sequence[Rational]]) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over the rationals, with pivot columns."""
    rows = [[Fraction(x) for x in row] for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = 1 / rows[r][c]
        rows[r] = [x * inv for x in rows[r]]
        for i in range(nrows):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    return rows[:r] + [[Fraction(0)] * ncols for _ in range(nrows - r)], pivots


def rank(m: Sequence[Sequence[Rational]]) -> int:
    return len(rref(m)[1])


def row_space_equal(a: Sequence[Sequence[Rational]], b: Sequence[Sequence[Rational]]) -> bool:
    ra, pa = rref(a)
    rb, pb = rref(b)
    return pa == pb and ra[:len(pa)] == rb[:len(pb)]


def solve_in_row_space(basis: Sequence[Sequence[Rational]], target: Sequence[Rational]) -> list[Fraction] | None:
    """Coefficients c with c . basis == target, or None if target is outside."""
    ncols = len(target)
    aug = [[Fraction(x) for x in row] + [Fraction(0)] * len(basis) for row in basis]
    for i in range(len(basis)):
        aug[i][ncols + i] = Fraction(1)
    red, pivots = rref(aug)
    coeffs = [Fraction(0)] * len(basis)
    resid = [Fraction(x) for x in target]
    for i, p in enumerate(pivots):
        if p >= ncols:
            continue
        if resid[p] != 0:
            f = resid[p] / red[i][p]
            resid = [x - f * y for x, y in zip(resid, red[i][:ncols])]
            for j in range(len(basis)):
                coeffs[j] += f * red[i][ncols + j]
    if any(x != 0 for x in resid):
        return None
    return coeffs


# ---------------------------------------------------------------------------
# Hermite normal form and integer kernels
# ---------------------------------------------------------------------------

def hnf(m: Sequence[Sequence[int]]) -> list[IntVec]:
    """Row-style Hermite normal form: pivots positive, entries above each
    pivot reduced into [0, pivot).  Zero rows are dropped."""
    h, _ = hnf_with_transform(m)
    return h


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """(g, s, t) with g = gcd(a, b) >= 0 and s*a + t*b == g."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def hnf_with_transform(m: Sequence[Sequence[int]]) -> tuple[list[IntVec], list[IntVec]]:
    """(H, U) with U unimodular, U . m == H (H in row HNF, zero rows last,
    then dropped from H but kept in U)."""
    rows = [list(map(int, row)) for row in m]
    nrows = len(rows)
    ncols = len(rows[0]) if rows else 0
    u = [[1 if i == j else 0 for j in range(nrows)] for i in range(nrows)]
    r = 0
    for c in range(ncols):
        pivot = None
        for i in range(r, nrows):
            if rows[i][c] != 0:
                pivot = i
                break
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        u[r], u[pivot] = u[pivot], u[r]
        for i in range(r + 1, nrows):
            if rows[i][c] == 0:
                continue
            a, b = rows[r][c], rows[i][c]
            g, s, t = xgcd(a, b)
            aa, bb = a // g, b // g
            # unimodular 2x2: [[s, t], [-bb, aa]] has determinant 1
            new_r = [s * x + t * y for x, y in zip(rows[r], rows[i])]
            new_i = [-bb * x + aa * y for x, y in zip(rows[r], rows[i])]
            rows[r], rows[i] = new_r, new_i
            new_ur = [s * x + t * y for x, y in zip(u[r], u[i])]
            new_ui = [-bb * x + aa * y for x, y in zip(u[r], u[i])]
            u[r], u[i] = new_ur, new_ui
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
            u[r] = [-x for x in u[r]]
        p = rows[r][c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
                u[i] = [x - q * y for x, y in zip(u[i], u[r])]
        r += 1
        if r == nrows:
            break
    h = [vec_int(row) for row in rows[:r]]
    return h, [vec_int(row) for row in u]


def kernel_int(m: Sequence[Sequence[int]], ncols: int | None = None, canonical: bool = True) -> list[IntVec]:
    """Basis of the saturated integer kernel {z : m . z == 0} of an integer
    constraint matrix (each row of m is one linear condition).

    The result spans exactly the integer points of the rational kernel, so
    it is automatically a primitive (saturated) sublattice.  With
    canonical=True the basis is returned in row Hermite normal form.
    """
    if ncols is None:
        if not m:
            raise ValueError("kernel_int needs at least one row or an explicit ncols")
        ncols = len(m[0])
    if not m:
        return [tuple(1 if j == i else 0 for j in range(ncols)) for i in range(ncols)]
    # Column-reduce m by a unimodular transform tracked in u: the rows of u
    # that map m's rows to zero span the kernel.
    cols = [[int(row[j]) for row in m] for j in range(ncols)]
    nleft = len(m)
    u = [[1 if k == j else 0 for k in range(ncols)] for j in range(ncols)]
    r = 0
    for c in range(nleft):
        pivot = next((i for i in range(r, ncols) if cols[i][c] != 0), None)
        if pivot is None:
            continue
        cols[r], cols[pivot] = cols[pivot], cols[r]
        u[r], u[pivot] = u[pivot], u[r]
        for i in range(r + 1, ncols):
            if cols[i][c] == 0:
                continue
            a, b = cols[r][c], cols[i][c]
            g, s, t = xgcd(a, b)
            aa, bb = a // g, b // g
            cols[r], cols[i] = (
                [s * p + t * q for p, q in zip(cols[r], cols[i])],
                [-bb * p + aa * q for p, q in zip(cols[r], cols[i])],
            )
            u[r], u[i] = (
                [s * p + t * q for p, q in zip(u[r], u[i])],
                [-bb * p + aa * q for p, q in zip(u[r], u[i])],
            )
        r += 1
        if r == ncols:
            break
    kernel = [vec_int(u[i]) for i in range(r, ncols)]
    if canonical:
        kernel = hnf(kernel)
    return kernel


def kernel_rational_constraints(constraints: Sequence[Sequence[Rational]], ncols: int) -> list[IntVec]:
    """Saturated integer kernel of rational linear conditions."""
    return kernel_int([_integral_multiple(row)[1] for row in constraints], ncols)


# ---------------------------------------------------------------------------
# integral LLL on a Gram matrix (performance only: never part of any
# accept/reject decision, since enumeration results are basis independent)
# ---------------------------------------------------------------------------

def integral_gso(g: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """All-integer Gram-Schmidt data for a positive-definite integer Gram:
    (lam, d) with mu_ij = lam[i][j]/d[j+1], |b*_i|^2 = d[i+1]/d[i], d[0]=1."""
    n = len(g)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1):
            s = g[i][j]
            for k in range(j):
                s = (d[k + 1] * s - lam[i][k] * lam[j][k]) // d[k]
            if j < i:
                lam[i][j] = s
            else:
                if s <= 0:
                    raise ValueError("gram matrix is not positive definite")
                d[i + 1] = s
    return lam, d


def lll_gram(gram: Sequence[Sequence[int]]) -> tuple[list[IntVec], list[list[int]], list[int]]:
    """LLL-reduce a positive-definite integer Gram matrix (delta = 3/4).

    Returns (U, lam, d): U unimodular, and the all-integer Gram-Schmidt
    data of the reduced Gram U . gram . U^T, exactly as integral_gso would
    compute it from that Gram.  All-integer de Weger arithmetic; no floats,
    no Fractions.  TypeError on a non-integer entry; ValueError (the
    leading-minor test of integral_gso) when gram is not positive definite.
    """
    n = len(gram)
    g = [[index(x) for x in row] for row in gram]
    lam, d = integral_gso(g)
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]

    def red(k: int, l: int) -> None:
        if 2 * abs(lam[k][l]) > d[l + 1]:
            q = (2 * lam[k][l] + d[l + 1]) // (2 * d[l + 1])
            u[k] = [x - q * y for x, y in zip(u[k], u[l])]
            lam[k][l] -= q * d[l + 1]
            for i in range(l):
                lam[k][i] -= q * lam[l][i]

    k = 1
    while k < n:
        red(k, k - 1)
        if 4 * (d[k - 1] * d[k + 1] + lam[k][k - 1] ** 2) < 3 * d[k] ** 2:
            # swap b_k, b_{k-1} with the standard lambda/d bookkeeping
            u[k], u[k - 1] = u[k - 1], u[k]
            for j in range(k - 1):
                lam[k][j], lam[k - 1][j] = lam[k - 1][j], lam[k][j]
            lam_kk = lam[k][k - 1]
            b_new = (d[k - 1] * d[k + 1] + lam_kk ** 2) // d[k]
            for i in range(k + 1, n):
                t = lam[i][k]
                lam[i][k] = (d[k + 1] * lam[i][k - 1] - lam_kk * t) // d[k]
                lam[i][k - 1] = (b_new * t + lam_kk * lam[i][k]) // d[k + 1]
            d[k] = b_new
            k = max(k - 1, 1)
        else:
            for l in range(k - 2, -1, -1):
                red(k, l)
            k += 1

    return [vec_int(r) for r in u], lam, d


# ---------------------------------------------------------------------------
# short vector enumeration (Fincke-Pohst on the integral LLL data)
# ---------------------------------------------------------------------------

def short_vectors(gram: Sequence[Sequence[int]], bound: Rational) -> list[tuple[IntVec, int]]:
    """All integer vectors z (including both signs) with
    0 < z . gram . z^T <= bound, for a positive-definite integer gram, each
    with its norm, in no particular order.

    The gram is always LLL-reduced first, which only affects speed, never
    the result set.  Raises ValueError when gram is not positive definite
    (the exact leading-minor test of integral_gso).
    """
    if not gram:
        return []
    u, lam, d = lll_gram(gram)
    return [(combine_rows(z, u), norm) for z, norm in _enumerate_int(lam, d, int(bound))]


def _enumerate_int(lam: list[list[int]], d: list[int], bound: int) -> list[tuple[IntVec, int]]:
    """Fincke-Pohst from the integral Gram-Schmidt data (lam, d) of a
    positive-definite integer Gram, with all-integer pruning arithmetic.
    Remaining budgets are carried as unreduced integer fractions; every
    comparison is an exact integer cross-multiplication."""
    n = len(lam)
    results: list[tuple[IntVec, int]] = []
    x = [0] * n

    def descend(j: int, t_num: int, t_den: int) -> None:
        # level j uses |b*_j|^2 = d[j+1]/d[j] and center -C/d[j+1]
        c = 0
        for i in range(j + 1, n):
            if x[i]:
                c += lam[i][j] * x[i]
        dj, dj1 = d[j], d[j + 1]
        lim = t_num * dj * dj1
        new_den = t_den * dj * dj1
        for direction in (0, 1):
            xj = -c // dj1 + direction  # floor of the real center, then +1
            while True:
                s = dj1 * xj + c
                rem = lim - s * s * t_den
                if rem < 0:
                    break
                if j == 0:
                    x[0] = xj
                    if any(x):
                        # rem/new_den = bound - q(x), an exact integer
                        results.append((vec_int(x), bound - rem // new_den))
                else:
                    x[j] = xj
                    descend(j - 1, rem, new_den)
                xj = xj - 1 if direction == 0 else xj + 1
        x[j] = 0

    descend(n - 1, bound, 1)
    return results


def vectors_of_norms(gram: Sequence[Sequence[int]], norms: Iterable[int]) -> dict[int, list[IntVec]]:
    """Integer vectors of a positive-definite integer gram hitting each of
    the given exact positive norms."""
    targets = sorted(set(int(t) for t in norms))
    if not targets or targets[0] <= 0:
        raise ValueError("norm targets must be positive, got %s" % (targets,))
    table: dict[int, list[IntVec]] = {t: [] for t in targets}
    for z, norm in short_vectors(gram, targets[-1]):
        if norm in table:
            table[norm].append(z)
    return table
