"""Integral lattices with an indefinite symmetric form, and the exact
subspace machinery built on them.

Everything is rational: subspaces are given by rational bases, orthogonality
and positivity are decided exactly, and no floating point ever enters a
predicate.
"""
from __future__ import annotations

import enum
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt
from typing import Sequence

from .exactlinalg import (
    IntVec,
    RatVec,
    Rational,
    _integral_multiple,
    clear_denominators,
    det_bareiss,
    det_rational,
    dot,
    gram_restrict,
    hnf,
    inertia,
    is_symmetric,
    kernel_int,
    mat_vec,
    rank as mat_rank,
    vec_rat,
)


class LatticeError(Exception):
    """Base class for all domain errors raised by this package."""


class DimensionMismatch(LatticeError):
    pass


class DegenerateGram(LatticeError):
    """Raised when a Gram matrix has determinant zero.  Carries a basis of
    the radical so the offending directions are diagnosable."""

    def __init__(self, message: str, kernel: list[IntVec]):
        super().__init__(message)
        self.kernel = kernel


class SignatureError(LatticeError):
    pass


class InvariantViolation(LatticeError):
    pass


def _integer(value, what: str) -> int:
    """value as an int; InvariantViolation unless it equals one, so that a
    norm like -5/2 or a Gram entry like 0.5 is never truncated."""
    try:
        n = int(value)
    except (TypeError, ValueError, OverflowError):
        n = None
    if n is None or n != value:
        raise InvariantViolation("%s must be an integer, got %r" % (what, value))
    return n


class Definiteness(enum.Enum):
    POSITIVE_DEFINITE = "positive-definite"
    NEGATIVE_DEFINITE = "negative-definite"
    INDEFINITE = "indefinite"
    DEGENERATE = "degenerate"


def definiteness(gram: Sequence[Sequence[Rational]]) -> Definiteness:
    """Exact classification of a symmetric rational matrix by inertia, read
    on its multiple by the positive lcm of its denominators."""
    if not is_symmetric(gram):
        raise InvariantViolation("definiteness needs a symmetric matrix")
    k = len(gram)
    flat = _integral_multiple([x for row in gram for x in row])[1]
    p, n, z = inertia([flat[i * k:(i + 1) * k] for i in range(k)])
    if z > 0:
        return Definiteness.DEGENERATE
    if n == 0:
        return Definiteness.POSITIVE_DEFINITE
    if p == 0:
        return Definiteness.NEGATIVE_DEFINITE
    return Definiteness.INDEFINITE


@dataclass(frozen=True)
class BBFLattice:
    """An integral lattice given by its Gram matrix.

    The constructor enforces integral entries (an entry that is not an
    integer raises InvariantViolation, never truncates), symmetry and
    nondegeneracy.  Signature is not constrained here: each operation
    states its own requirement, and the full (3, rank-3) convention is
    validated at the catalog level.
    """

    gram: tuple[tuple[int, ...], ...]

    def __init__(self, gram: Sequence[Sequence[int]]):
        rows = tuple(tuple(_integer(x, "gram entry") for x in row) for row in gram)
        if any(len(row) != len(rows) for row in rows):
            raise DimensionMismatch("gram matrix must be square")
        if not is_symmetric(rows):
            raise InvariantViolation("gram matrix must be symmetric")
        if rows and det_bareiss(rows) == 0:
            radical = hnf(kernel_int(rows))
            raise DegenerateGram(
                "gram matrix is degenerate; radical basis: %s" % (radical,), radical
            )
        object.__setattr__(self, "gram", rows)

    @property
    def rank(self) -> int:
        return len(self.gram)

    def _check_dim(self, v: Sequence[Rational]) -> None:
        if len(v) != self.rank:
            raise DimensionMismatch(
                "vector length %d does not match lattice rank %d" % (len(v), self.rank)
            )

    def inner(self, u: Sequence[Rational], v: Sequence[Rational]) -> Rational:
        """The bilinear form u . gram . v, exact; a float entry counts as
        the rational it holds exactly, as vec_rat converts it."""
        self._check_dim(u)
        self._check_dim(v)
        total = 0
        for i, ui in enumerate(u):
            if ui:
                total += ui * dot(self.gram[i], v)
        if isinstance(total, float):
            # a float entry met a nonzero one: redo the sum on exact values
            return self.inner(vec_rat(u), vec_rat(v))
        f = Fraction(total)
        return int(f) if f.denominator == 1 else f

    def q(self, v: Sequence[Rational]) -> Rational:
        return self.inner(v, v)

    def signature(self) -> tuple[int, int]:
        """(positive, negative) inertia counts, computed exactly once per
        lattice (the Gram is immutable, and nondegenerate by construction,
        so there is no zero count)."""
        sig = self.__dict__.get("_signature")
        if sig is None:
            sig = inertia(self.gram)[:2]
            object.__setattr__(self, "_signature", sig)
        return sig

    def _exact_rows(self, basis: Sequence[Sequence[Rational]]) -> list[RatVec]:
        """The rows of basis with every entry exact, a float as the rational
        it holds (as inner reads it); DimensionMismatch on a wrong length."""
        for row in basis:
            self._check_dim(row)
        return [vec_rat(row) for row in basis]

    def restricted_gram(self, basis: Sequence[Sequence[Rational]]) -> list[list[Rational]]:
        return gram_restrict(self._exact_rows(basis), self.gram)

    def orthogonal_complement_integral(self, basis: Sequence[Sequence[Rational]]) -> list[IntVec]:
        """Basis (in row Hermite normal form) of the saturated sublattice
        {z integral : q(z, s) = 0 for all rows s of basis}.
        InvariantViolation unless the rows of basis are independent: the
        form is nondegenerate, so dependent rows leave a larger kernel."""
        rows = self._exact_rows(basis)
        kernel = kernel_int([clear_denominators(mat_vec(self.gram, row)) for row in rows], self.rank)
        if len(kernel) > self.rank - len(basis):
            raise InvariantViolation("orthogonal complement requires a full-row-rank basis")
        return hnf(kernel)

    def is_type_11(self, z: Sequence[Rational], plane: "OrientedPositiveSubspace") -> bool:
        """Whether z is orthogonal to every vector of the given plane."""
        self._check_dim(z)
        return all(self.inner(z, row) == 0 for row in plane.basis)

    def __repr__(self) -> str:  # keep reprs short: gram matrices get large
        return "BBFLattice(rank=%d)" % self.rank


# -- standard building blocks ------------------------------------------------

def hyperbolic_plane() -> list[list[int]]:
    """Gram matrix of U: two isotropic vectors pairing to 1."""
    return [[0, 1], [1, 0]]


def e8_matrix(sign: int = 1) -> list[list[int]]:
    """Gram matrix of the E8 root lattice (sign=+1) or its negation."""
    edges = [(0, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (1, 3)]
    g = [[0] * 8 for _ in range(8)]
    for i in range(8):
        g[i][i] = 2 * sign
    for a, b in edges:
        g[a][b] = g[b][a] = -sign
    return g


def diagonal_matrix(entries: Sequence[int]) -> list[list[int]]:
    return [[entries[i] if i == j else 0 for j in range(len(entries))] for i in range(len(entries))]


def direct_sum(*blocks: Sequence[Sequence[int]]) -> list[list[int]]:
    n = sum(len(b) for b in blocks)
    g = [[0] * n for _ in range(n)]
    off = 0
    for b in blocks:
        for i, row in enumerate(b):
            for j, x in enumerate(row):
                g[off + i][off + j] = _integer(x, "gram entry")
        off += len(b)
    return g


def k3_matrix() -> list[list[int]]:
    """Gram of three hyperbolic planes plus two negated E8 blocks,
    the even unimodular lattice of signature (3, 19)."""
    return direct_sum(
        hyperbolic_plane(), hyperbolic_plane(), hyperbolic_plane(),
        e8_matrix(-1), e8_matrix(-1),
    )


# -- subspaces ---------------------------------------------------------------

@dataclass(frozen=True)
class OrientedPositiveSubspace:
    """An oriented subspace of dimension 2 or 3 on which the form is
    positive definite.  Two bases describe the same oriented subspace
    exactly when the change of basis has positive determinant.  Dependent
    rows give a degenerate restricted Gram, so positive definiteness is
    also the check that the rows are independent."""

    lattice: BBFLattice
    basis: tuple[RatVec, ...]

    def __init__(self, lattice: BBFLattice, basis: Sequence[Sequence[Rational]]):
        rows = tuple(vec_rat(row) for row in basis)
        for row in rows:
            lattice._check_dim(row)
        if len(rows) not in (2, 3):
            raise InvariantViolation("oriented positive subspaces have dimension 2 or 3")
        cls = definiteness(gram_restrict(rows, lattice.gram))
        if cls is not Definiteness.POSITIVE_DEFINITE:
            raise InvariantViolation(
                "form restricted to the subspace is %s, not positive definite" % cls.value
            )
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "basis", rows)

    @property
    def dim(self) -> int:
        return len(self.basis)

    def restricted_gram(self) -> list[list[Rational]]:
        return self.lattice.restricted_gram(self.basis)

    def reversed(self) -> "OrientedPositiveSubspace":
        """Same subspace with the opposite orientation (swap first two rows)."""
        rows = (self.basis[1], self.basis[0]) + self.basis[2:]
        return OrientedPositiveSubspace(self.lattice, rows)


class OrientationRelation(enum.Enum):
    SAME_ORIENTED_SUBSPACE = "same-oriented-subspace"
    OPPOSITE_ORIENTATION = "same-subspace-opposite-orientation"
    DIFFERENT_SUBSPACE = "different-subspace"


def orientation_relation(
    s1: OrientedPositiveSubspace, s2: OrientedPositiveSubspace
) -> OrientationRelation:
    """Exact comparison of two oriented subspaces of equal dimension."""
    if s1.lattice.gram != s2.lattice.gram:
        raise DimensionMismatch("oriented subspaces live in different lattices")
    if s1.dim != s2.dim:
        raise DimensionMismatch("oriented subspaces have different dimensions")
    if mat_rank(s1.basis + s2.basis) != s1.dim:
        return OrientationRelation.DIFFERENT_SUBSPACE
    # on the common subspace s1 = C . s2, so the mixed Gram s1 . G . s2^T is
    # C . (s2 . G . s2^T); the second factor has positive determinant since
    # s2 is positive definite, so det C has the sign of the mixed Gram's
    g2 = [mat_vec(s2.lattice.gram, row) for row in s2.basis]
    if det_rational([[dot(row, g) for g in g2] for row in s1.basis]) > 0:
        return OrientationRelation.SAME_ORIENTED_SUBSPACE
    return OrientationRelation.OPPOSITE_ORIENTATION


# -- period lines ------------------------------------------------------------

@dataclass(frozen=True)
class PeriodLine:
    """The complex line x + i y, encoded by its real and imaginary parts,
    subject to q(x,x) = q(y,y) > 0 and q(x,y) = 0."""

    lattice: BBFLattice
    re: RatVec
    im: RatVec

    def __init__(self, lattice: BBFLattice, re: Sequence[Rational], im: Sequence[Rational]):
        x = vec_rat(re)
        y = vec_rat(im)
        qx = lattice.q(x)
        qy = lattice.q(y)
        qxy = lattice.inner(x, y)
        if qxy != 0:
            raise InvariantViolation("period line needs q(re, im) = 0, got %s" % (qxy,))
        if qx != qy:
            raise InvariantViolation(
                "period line needs q(re,re) = q(im,im); got %s and %s" % (qx, qy)
            )
        if qx <= 0:
            raise InvariantViolation("period line needs q(re,re) > 0, got %s" % (qx,))
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "re", x)
        object.__setattr__(self, "im", y)


def period_line_to_plane(line: PeriodLine) -> OrientedPositiveSubspace:
    """The oriented positive 2-plane spanned by (re, im)."""
    return OrientedPositiveSubspace(line.lattice, (line.re, line.im))


@dataclass(frozen=True)
class PeriodLineBasis:
    """Result of converting an oriented plane back into a period line.

    A rational orthogonal basis (x, y) of the plane always exists; equal
    norms are only possible when the norm ratio is a square of a rational,
    so the ratio q(y,y)/q(x,x) is reported instead of forcing an irrational
    rescaling.  When equal_norm holds, `line` carries the invariant-checked
    period line.
    """

    x: RatVec
    y: RatVec
    norm_ratio: Fraction
    equal_norm: bool
    line: PeriodLine | None


def _fraction_sqrt(f: Fraction) -> Fraction | None:
    """Exact square root of a nonnegative rational, if it exists."""
    if f < 0:
        return None
    rn = isqrt(f.numerator)
    rd = isqrt(f.denominator)
    if rn * rn == f.numerator and rd * rd == f.denominator:
        return Fraction(rn, rd)
    return None


def plane_to_period_line(
    plane: OrientedPositiveSubspace, scale: Rational = 1
) -> PeriodLineBasis:
    """Invert period_line_to_plane by exact Gram-Schmidt.

    x is `scale` times the plane's first basis vector; y spans the
    orthogonal direction, rescaled to equal norm whenever the required
    factor is rational, preserving orientation.
    """
    if plane.dim != 2:
        raise InvariantViolation("period lines correspond to 2-dimensional planes")
    scale = Fraction(scale)
    if scale <= 0:
        raise InvariantViolation("scale must be a positive rational")
    lat = plane.lattice
    b1, b2 = plane.basis
    x = vec_rat([scale * t for t in b1])
    qx = Fraction(lat.q(x))
    # Gram-Schmidt the second vector against the first
    f = Fraction(lat.inner(b2, x)) / qx
    y0 = vec_rat([b - f * a for a, b in zip(x, b2)])
    qy0 = Fraction(lat.q(y0))
    root = _fraction_sqrt(qx / qy0)
    if root is not None:
        y = vec_rat([root * t for t in y0])
        line = PeriodLine(lat, x, y)
        return PeriodLineBasis(x=x, y=y, norm_ratio=Fraction(1), equal_norm=True, line=line)
    return PeriodLineBasis(x=x, y=y0, norm_ratio=qy0 / qx, equal_norm=False, line=None)


def fujiki_product(fujiki_c: int, half_dim_n: int, q_value: Rational) -> Rational:
    """Top self-intersection number c * q(v,v)^n from the degree-2 form."""
    result = fujiki_c * Fraction(q_value) ** half_dim_n
    return int(result) if result.denominator == 1 else result
