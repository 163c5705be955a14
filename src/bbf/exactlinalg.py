"""Exact linear algebra, free of floating point: every elimination is
fraction-free over the integers, and rational input is cleared of
denominators once, at the boundary (vec_rat, clear_denominators,
det_rational, rank).  Matrices are lists/tuples of row sequences; nothing
here mutates its arguments unless explicitly stated.
"""
from __future__ import annotations

from fractions import Fraction
from math import gcd, isqrt, lcm
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


def mat_mul(a: Sequence[Sequence[Rational]], b: Sequence[Sequence[Rational]]) -> list[list[Rational]]:
    """The matrix product a . b (b non-empty), each row of it a combination
    of the rows of b in which a zero coefficient costs nothing, so a sparse
    a is cheap."""
    out = []
    for row in a:
        acc = [0] * len(b[0])
        for c, brow in zip(row, b):
            if c:
                acc = [x + c * y for x, y in zip(acc, brow)]
        out.append(acc)
    return out


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
    return gcd(*v)


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
    return den, [f.numerator * (den // f.denominator) for f in fracs]


def clear_denominators(v: Sequence[Rational]) -> IntVec:
    """Scale a rational vector by a positive integer to a primitive integer vector."""
    return primitive_part(_integral_multiple(v)[1])


# ---------------------------------------------------------------------------
# determinants, inertia, row reduction: fraction-free (Bareiss) elimination
# ---------------------------------------------------------------------------

def gauss_jordan(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int], int]:
    """Fraction-free (Bareiss) Gauss-Jordan elimination of an integer
    matrix: (rows, pivots, d).  The nonzero rows, with pivot columns
    pivots, all have the pivot entry |d|: they are |d| times the rows of
    the reduced row echelon form.  d is the last pivot times the sign of
    the row swaps, det m for a square m of full rank.  TypeError on a
    non-integer entry."""
    rows = [[index(x) for x in row] for row in m]
    nrows, ncols = len(rows), len(rows[0]) if rows else 0
    pivots: list[int] = []
    prev = sign = 1
    for c in range(ncols):
        r = len(pivots)
        k = next((i for i in range(r, nrows) if rows[i][c]), None)
        if k is None:
            continue
        if k != r:
            rows[r], rows[k] = rows[k], rows[r]
            sign = -sign
        row_r = rows[r]
        d = row_r[c]
        # every entry is a minor of m, so each division is exact
        for i in range(nrows):
            if i != r:
                f = rows[i][c]
                rows[i] = [(d * x - f * y) // prev for x, y in zip(rows[i], row_r)]
        prev = d
        pivots.append(c)
    if prev < 0:
        rows = [[-x for x in row] for row in rows]
    return rows[:len(pivots)], pivots, sign * prev


def det_bareiss(m: Sequence[Sequence[int]]) -> int:
    """Determinant of an integer matrix, from gauss_jordan: 0 when it
    finds fewer pivots than rows."""
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("determinant needs a square matrix")
    _, pivots, d = gauss_jordan(m)
    return d if len(pivots) == n else 0


def det_rational(m: Sequence[Sequence[Rational]]) -> Fraction:
    """Determinant of a rational matrix, via row scaling + Bareiss."""
    scale = Fraction(1)
    rows = []
    for row in m:
        den, cleared = _integral_multiple(row)
        scale /= den
        rows.append(cleared)
    return scale * det_bareiss(rows)


def rank(m: Sequence[Sequence[Rational]]) -> int:
    """Rank of a rational matrix: the pivots of gauss_jordan on its rows
    cleared of denominators."""
    return len(gauss_jordan([_integral_multiple(row)[1] for row in m])[1])


def inertia(m: Sequence[Sequence[int]]) -> tuple[int, int, int]:
    """Counts (positive, negative, zero) of eigenvalue signs of a symmetric
    integer matrix: the signs of its exact congruence diagonalization, so
    it is safe arbitrarily close to degeneracy.  A rational matrix has the
    inertia of its positive multiples: callers clear its denominators."""
    _, diag = diagonalize_symmetric(m)
    pos, neg = sum(d > 0 for d in diag), sum(d < 0 for d in diag)
    return pos, neg, len(diag) - pos - neg


def diagonalize_symmetric(m: Sequence[Sequence[int]]) -> tuple[list[list[int]], list[int]]:
    """Fraction-free congruence diagonalization of a symmetric integer
    matrix (Bareiss-style LDL^T): integer (T, diag) with T . m . T^T the
    diagonal matrix diag; rows of T are in the original coordinates.

    The pivot is the first nonzero diagonal entry; when all vanish, the
    congruence e_p -> e_p + e_j on the first nonzero off-diagonal pair
    makes one.  The live block is prev times its rational Schur
    complement, prev the last pivot, so each division by prev is exact,
    and a row of T is |prev| times the row of rational Lagrange reduction.
    TypeError on a non-integer entry."""
    if not is_symmetric(m):
        raise ValueError("diagonalization needs a symmetric matrix")
    n = len(m)
    a = [[index(x) for x in row] for row in m]
    t = [[int(i == j) for j in range(n)] for i in range(n)]
    live = list(range(n))
    rows: list[list[int]] = []
    diag: list[int] = []
    prev = 1
    while live:
        p = next((i for i in live if a[i][i] != 0), None)
        if p is None:
            # all diagonal entries vanish; hunt for an off-diagonal entry
            hyp = next(
                ((i, j) for k, i in enumerate(live) for j in live[k + 1:] if a[i][j] != 0),
                None,
            )
            if hyp is None:
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
        d, row_p, t_p = a[p][p], a[p], t[p]
        rows.append(t_p if prev > 0 else [-x for x in t_p])
        diag.append(prev * d)
        # e_i -> d e_i - a_ip e_p clears row and column p; the live block
        # becomes d times its Schur complement, then exactly divided by prev
        for i in live:
            f, row_i = a[i][p], a[i]
            for j in live:
                row_i[j] = (d * row_i[j] - f * row_p[j]) // prev
            t[i] = [(d * x - f * y) // prev for x, y in zip(t[i], t_p)]
        prev = d
    rows += [t[i] if prev > 0 else [-x for x in t[i]] for i in live]
    return rows, diag + [0] * len(live)


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
    then dropped from H but kept in U).  Each row of m carries its row of
    the identity through the elimination on m's columns, so the tail of
    every row is its row of U."""
    nrows = len(m)
    ncols = len(m[0]) if m else 0
    rows = [[int(x) for x in row] + [int(i == j) for j in range(nrows)] for i, row in enumerate(m)]
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if rows[i][c] != 0), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        for i in range(r + 1, nrows):
            if rows[i][c] == 0:
                continue
            a, b = rows[r][c], rows[i][c]
            g, s, t = xgcd(a, b)
            aa, bb = a // g, b // g
            # unimodular 2x2: [[s, t], [-bb, aa]] has determinant 1
            new_r = [s * x + t * y for x, y in zip(rows[r], rows[i])]
            rows[i] = [-bb * x + aa * y for x, y in zip(rows[r], rows[i])]
            rows[r] = new_r
        if rows[r][c] < 0:
            rows[r] = [-x for x in rows[r]]
        p = rows[r][c]
        for i in range(r):
            q = rows[i][c] // p
            if q:
                rows[i] = [x - q * y for x, y in zip(rows[i], rows[r])]
        r += 1
        if r == nrows:
            break
    return [tuple(row[:ncols]) for row in rows[:r]], [tuple(row[ncols:]) for row in rows]


def kernel_int(m: Sequence[Sequence[int]], ncols: int | None = None) -> list[IntVec]:
    """Basis of the saturated integer kernel {z : m . z == 0} of an integer
    constraint matrix (each row of m is one linear condition).

    The result spans exactly the integer points of the rational kernel, so
    it is automatically a primitive (saturated) sublattice.  The basis is
    the one the elimination leaves, not a normal form: callers that print
    it apply hnf.
    """
    if ncols is None:
        if not m:
            raise ValueError("kernel_int needs at least one row or an explicit ncols")
        ncols = len(m[0])
    # the rows of u with u . m^T == 0, the zero rows of the HNF, span the
    # kernel (all of u when m has no rows)
    h, u = hnf_with_transform([[row[j] for row in m] for j in range(ncols)])
    return u[len(h):]


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

def short_vectors(
    lam: Sequence[Sequence[int]],
    d: Sequence[int],
    bound: int,
    ell: Sequence[int],
    targets: Iterable[int],
) -> list[tuple[IntVec, int]]:
    """Fincke-Pohst on the integral Gram-Schmidt data (lam, d) of a
    positive-definite integer form phi, as lll_gram returns it, restricted
    to one shell: one x of each +- pair x != 0 with phi(x) <= bound and

        tau = 2 l(x)^2 - phi(x) in targets,   l(x) = x . ell,

    as pairs (x, tau), in no particular order; -x is the other half of the
    answer.  x is in the coordinates of the rows of lll_gram's U, and so is
    ell; callers map back (combine_rows(x, U)) only the vectors they keep.
    With ell = 0, tau = -phi(x).

    The last coordinate is not walked: with x[1:] fixed, an interval of
    at most two points has each point's shell value read and looked up in
    targets; on a longer one the shell condition is an integer quadratic
    in x[0] (see _last_coordinate), and only its integral roots inside the
    interval allowed by the bound are reported.  Pruning is all-integer:
    exact cross-multiplications of unreduced fractions.  The x reported is
    the one whose last nonzero coordinate is positive.  Rank 0 gives []."""
    n = len(lam)
    results: list[tuple[IntVec, int]] = []
    if n:
        _descend(lam, d, bound, ell, frozenset(targets), [0] * n, results, n - 1, bound, 1, 0, True)
    return results


def _descend(lam, d, bound, ell, targets, x, results, j, t_num, t_den, h, top) -> None:
    """One Fincke-Pohst level j with budget t_num/t_den and h = l(x[j+1:]);
    x[j+1:] is fixed, and all zero when top is set.  A module-level
    function, so a search leaves no reference cycle."""
    # level j uses |b*_j|^2 = d[j+1]/d[j] and center -c/d[j+1]
    c = 0
    for i in range(j + 1, len(x)):
        if x[i]:
            c += lam[i][j] * x[i]
    dj, dj1 = d[j], d[j + 1]
    if j == 0:
        # d[0] = 1 and, with s = d1 x0 + c, phi(x) = bound - t_num/t_den + s^2/d1
        # for every x0; phi is integral, so room = d1 t_num/t_den is an
        # integer, and x0 is inside the interval exactly when s^2 <= room
        room = dj1 * t_num // t_den
        x0 = -c // dj1
        s = dj1 * x0 + c
        if s * s > room and (s + dj1) ** 2 > room:
            return  # neither point next to the center fits
        g = ell[0]
        if room < dj1 * dj1:
            # the interval is shorter than 2, so it holds at most these two
            # points: read each one's shell value, with
            # phi(x) = bound + (s^2 - room)/d1
            for x0, s in ((x0, s), (x0 + 1, s + dj1)):
                if s * s <= room and (x0 > 0 or not top):
                    tau = 2 * (g * x0 + h) ** 2 - bound - (s * s - room) // dj1
                    if tau in targets:
                        x[0] = x0
                        results.append((tuple(x), tau))
            x[0] = 0
            return
        # 2 (g x0 + h)^2 - phi(x) = tau is, times d1,
        # a x0^2 + 2 b x0 + k0 + d1 tau = 0
        a = dj1 * (dj1 - 2 * g * g)
        b = dj1 * (c - 2 * g * h)
        k0 = c * c + dj1 * (bound - 2 * h * h) - room
        for tau in targets:
            roots = _last_coordinate(a, b, k0 + dj1 * tau)
            if roots is None:
                # a = b = 0 and the equation holds: every x0 of the interval
                r = isqrt(room)
                roots = range(-((r + c) // dj1), (r - c) // dj1 + 1)
            for x0 in roots:
                s = dj1 * x0 + c
                if s * s <= room and (x0 > 0 or not top):
                    x[0] = x0
                    results.append((tuple(x), tau))
        x[0] = 0
        return
    lim = t_num * dj * dj1
    new_den = t_den * dj * dj1
    g = ell[j]
    for direction in (0, 1):
        xj = -c // dj1 + direction  # floor of the real center, then +1
        while True:
            s = dj1 * xj + c
            rem = lim - s * s * t_den
            if rem < 0:
                break
            x[j] = xj
            _descend(lam, d, bound, ell, targets, x, results, j - 1, rem, new_den, h + g * xj, top and xj == 0)
            if top and direction == 0:
                break  # x[j+1:] == 0: xj = 0, then the positive side only
            xj = xj - 1 if direction == 0 else xj + 1
    x[j] = 0


def _last_coordinate(a: int, b: int, k: int) -> tuple[int, ...] | None:
    """The integer roots of a x^2 + 2 b x + k = 0, or None when every x is
    one (a = b = k = 0)."""
    if a:
        disc = b * b - a * k
        if disc < 0:
            return ()
        r = isqrt(disc)
        if r * r != disc:
            return ()
        lo, hi = divmod(-b - r, a), divmod(-b + r, a)
        if r == 0:
            return () if lo[1] else (lo[0],)
        return tuple(y for y, rest in (lo, hi) if not rest)
    if b:
        return (-k // (2 * b),) if k % (2 * b) == 0 else ()
    return None if k == 0 else ()
