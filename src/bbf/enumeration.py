"""Finite enumeration of lattice vectors under quadratic constraints.

Short vectors in negative-definite lattices; candidate wall classes in
orthogonal complements; walls through a positive vector and walls separating
two positive vectors in a hyperbolic lattice; chamber membership built on
those.  Every accept/reject test is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from operator import mul
from typing import Iterable, Sequence

from .exactlinalg import (
    IntVec,
    RatVec,
    Rational,
    clear_denominators,
    combine_rows,
    content,
    det_bareiss,
    dot,
    inertia,
    is_symmetric,
    lll_gram,
    mat_mul,
    mat_vec,
    primitive_part,
    short_vectors,
    sign_normalize,
    vec_rat,
)
from .lattice import (
    BBFLattice,
    Definiteness,
    InvariantViolation,
    SignatureError,
    _integer,
    definiteness,
)


@dataclass(frozen=True)
class NormTargetSet:
    """The admissible self-intersection numbers for wall classes: a finite,
    non-empty set of strictly negative integers."""

    norms: tuple[int, ...]

    def __init__(self, norms: Iterable[int]):
        values = tuple(sorted(set(_integer(x, "norm target") for x in norms)))
        if not values:
            raise InvariantViolation("norm target set must be non-empty")
        if values[-1] >= 0:
            raise InvariantViolation(
                "norm targets must be strictly negative, got %s" % (values[-1],)
            )
        object.__setattr__(self, "norms", values)

    @classmethod
    def coerce(cls, value: "NormTargetSet | Iterable[int]") -> "NormTargetSet":
        if isinstance(value, NormTargetSet):
            return value
        return cls(value)

    @property
    def max_abs(self) -> int:
        return -self.norms[0]

    def __iter__(self):
        return iter(self.norms)


@dataclass(frozen=True, order=True)
class WallReport:
    """A wall: the orthogonal hyperplane of a primitive, sign-normalized
    integral class with norm in the target set.  crossing_parameter is set
    by segment searches (the rational t where the segment meets the wall)."""

    wall_class: IntVec
    norm: int
    crossing_parameter: Fraction | None = None


@dataclass(frozen=True)
class ChamberMembership:
    interior: bool
    walls: tuple[WallReport, ...]


class OnWallError(InvariantViolation):
    """An endpoint of a chamber query lies on a wall; carries the walls."""

    def __init__(self, message: str, walls: tuple[WallReport, ...]):
        super().__init__(message)
        self.walls = walls


# log2 of the first penalty weight N of _wall_search; N decides only
# how fast the reduction runs, never its answer
_PENALTY_BITS = 40

# a reduced basis U with U G U^T, or None where it was not formed
ReducedBasis = tuple[list[list[int]], list[list[int]] | None]


def _wall_search(
    gram: Sequence[Sequence[int]],
    rows: Sequence[Sequence[int]],
    norms: Iterable[int],
    start: ReducedBasis | None = None,
    ray: Sequence[int] | None = None,
    bound: int | None = None,
) -> tuple[ReducedBasis, dict[int, list[IntVec]]]:
    """Fincke-Pohst for the given negative norms on the saturated lattice
    K = {z integral : q(z, r) = 0 for every row r}, found by one LLL
    reduction with the rows as a penalty: ((U, U G U^T), {t: [x, ...]}),
    one x of norm t for each +- pair.  x has m = n - k coordinates, in the
    basis of the first m rows of the unimodular U (z = combine_rows(x,
    U[:m])), and those rows are a basis of K, so z is primitive exactly
    when x is.  rows = () searches the whole lattice.

    The k integer rows must be independent and span a space on which q is
    positive definite.  Let R be their primitive parts, A = R G and
    M = R G R^T, an integral positive-definite k x k matrix.
    The search reduces

        Q_N = -a G + 2 (G u')(G u')^T + N^2 A^T A,

    which is phi(z) = 2 q(z,u')^2 - a q(z,z) on K, since A z = 0 there,
    for the ray u' with a = q(u',u') (no ray: a = 1 and phi = -q).  It
    keeps the x with phi <= bound (default max |t|) and 2 q(z,u')^2 - phi
    = a t.  The floor and the cap on N below are proved with no ray.

    - Q_N is positive definite exactly when -q is positive definite on K
      and N^2 M > I: writing z = z_K + R^T c,
      Q_N(z) = -q(z_K) + c^T (N^2 M^2 - M) c.  Since det M >= 1,
      trace(M)^(k-1) >= 1/lambda_min(M), so N^2 > trace(M)^(k-1) is chosen
      up front; after that a failed leading-minor test in LLL means -q is
      not positive definite on K, and raises SignatureError at once.
    - The first m reduced rows are tested exactly for A z = 0.  If they
      pass, they are m independent vectors of K inside a unimodular basis,
      so they are a basis of the saturated K, and lam[:m], d[:m+1] are the
      Gram-Schmidt data of -q on it.  Otherwise the bits of N double.
    - The test cannot fail once N^2 > trace(M)^(k-1) + 2^(n-1) lambda_m,
      lambda_m the m-th minimum of -q on K: a vector off K has
      w = A z != 0, so Q_N(z) >= N^2 |w|^2 - w^T M^-1 w
      >= N^2 - trace(M)^(k-1), while LLL (delta 3/4) keeps each of the
      first m reduced rows within 2^(n-1) lambda_m in Q_N.  -q is integral
      on K, so by Minkowski lambda_m <= gamma_m^m |det K|, with
      |det K| <= |det G| det M and gamma_m <= 1 + m/4.  Past that cap a
      failed test raises InvariantViolation, so the loop ends after a few
      doublings.

    start = (S, S G S^T) of an earlier answer on the same Gram (the Gram
    may be None, as a cold answer leaves it) warm-starts the reduction:
    S Q_N S^T is reduced and composed with S.  Only speed depends on it.
    A cold answer leaves U G U^T as None; a warm one carries it, from the
    reducing transform, which is sparse when S was nearly reduced.
    TypeError on a non-integer Gram entry.
    """
    n, k = len(gram), len(rows)
    m = n - k
    table: dict[int, list[IntVec]] = {t: [] for t in norms}
    r = [primitive_part(row) for row in rows]
    a = [mat_vec(gram, row) for row in r]
    mm = [[dot(ai, rj) for rj in r] for ai in a]
    floor = sum(mm[i][i] for i in range(k)) ** (k - 1) if k else 0
    s, gram_s = start or (None, gram)
    gu = None if ray is None else mat_vec(gram, ray)
    scale = 1 if ray is None else dot(ray, gu)
    if s is not None:
        if gram_s is None:
            gram_s = mat_mul(s, list(zip(*mat_mul(s, gram))))
        a = [mat_vec(s, ai) for ai in a]  # A S^T: the rows in the coordinates of S
        if gu is not None:
            gu = mat_vec(s, gu)
    # Q_N without its penalty: -a G + 2 (G u')(G u')^T
    if gu is None:
        q0 = [[-g for g in grow] for grow in gram_s]
    else:
        q0 = [[2 * x * y - scale * g for y, g in zip(gu, grow)] for x, grow in zip(gu, gram_s)]
    penalty = mat_mul(list(zip(*a)), a) if k else None
    bits = _PENALTY_BITS
    while 4 ** bits <= floor:
        bits *= 2
    cap = None
    while True:
        weight = 4 ** bits  # N^2
        q = [[weight * p + g for p, g in zip(pr, gr)] for pr, gr in zip(penalty, q0)] if k else q0
        try:
            u, lam, d = lll_gram(q)
        except ValueError:
            raise SignatureError(
                "enumeration requires a form negative definite orthogonal to %d rows; "
                "ambient inertia %s" % (k, inertia(gram))
            ) from None
        if not any(dot(ai, z) for z in u[:m] for ai in a):
            break
        if cap is None:
            gamma = -(-(m + 4) ** m // 4 ** m)  # ceil((1 + m/4)^m)
            cap = floor + 2 ** (n - 1) * gamma * abs(det_bareiss(gram)) * det_bareiss(mm)
        if weight > cap:
            raise InvariantViolation(
                "penalty reduction missed the complement of %d rows past its proved bound" % k
            )
        bits *= 2
    shells = {scale * t: t for t in table}
    ell = [0] * m if gu is None else mat_vec(u[:m], gu)
    bound = -min(table) if bound is None else bound
    for x, tau in short_vectors(lam[:m], d[:m + 1], bound, ell, shells):
        table[shells[tau]].append(x)
    if s is None:
        return (u, None), table
    return (mat_mul(u, s), mat_mul(u, list(zip(*mat_mul(u, gram_s))))), table


def _primitive_walls(u: Sequence[IntVec], table: dict[int, list[IntVec]]) -> list[WallReport]:
    """The walls of a _wall_search answer: the primitive hits mapped
    through U and sign-normalized, sorted by class."""
    reports = [
        WallReport(wall_class=sign_normalize(combine_rows(x, u[:len(x)])), norm=t)
        for t, hits in table.items()
        for x in hits
        if content(x) == 1
    ]
    reports.sort(key=lambda rep: rep.wall_class)
    return reports


def enumerate_vectors_of_norm(
    gram: Sequence[Sequence[int]], target: int
) -> list[IntVec]:
    """Exactly the integer vectors z with z . gram . z == target, for a
    negative-definite integer Gram and a negative target, in lexicographic
    order.  Finiteness is immediate from definiteness, which the
    leading-minor test of Fincke-Pohst decides: SignatureError otherwise.
    Integer Grams only (TypeError on any other entry)."""
    if not is_symmetric(gram):
        raise InvariantViolation("gram matrix must be symmetric")
    target = _integer(target, "target norm")
    if target >= 0:
        raise InvariantViolation("target norm must be negative, got %d" % target)
    (u, _), table = _wall_search(gram, (), [target])
    hits = [combine_rows(x, u) for x in table[target]]
    return sorted(hits + [tuple(-c for c in z) for z in hits])


def mbm_candidates_in_complement(
    lattice: BBFLattice,
    subspace: Sequence[Sequence[Rational]],
    norms: NormTargetSet | Iterable[int],
) -> list[WallReport]:
    """All primitive sign-normalized integral classes with norm in the
    target set that are orthogonal to the positive-definite subspace
    spanned by the given rows.

    Requires the ambient signature to be (dim S, rank - dim S) so the
    complement is negative definite and the search finite.  Rows that
    span a positive-definite space are independent, which is what the
    one penalty-form reduction of _wall_search needs: it finds the
    walls orthogonal to the rows without forming the complement.
    """
    norms = NormTargetSet.coerce(norms)
    basis = [clear_denominators(row) for row in subspace]
    sub_gram = lattice.restricted_gram(basis)
    if definiteness(sub_gram) is not Definiteness.POSITIVE_DEFINITE:
        raise InvariantViolation(
            "subspace restriction must be positive definite, inertia %s"
            % (inertia(sub_gram),)
        )
    p, nneg = lattice.signature()
    if p != len(basis):
        raise SignatureError(
            "complement of a %d-dimensional positive subspace in signature "
            "(%d, %d) is not negative definite" % (len(basis), p, nneg)
        )
    (u, _), table = _wall_search(lattice.gram, basis, norms)
    return _primitive_walls(u, table)


def _require_hyperbolic(lattice: BBFLattice) -> None:
    p, n = lattice.signature()
    if p != 1:
        raise SignatureError(
            "operation needs a hyperbolic lattice of signature (1, k); got (%d, %d)"
            % (p, n)
        )


def _require_positive(lattice: BBFLattice, name: str, h: RatVec) -> None:
    qh = lattice.q(h)
    if qh <= 0:
        raise InvariantViolation("q(%s,%s) must be positive, got %s" % (name, name, qh))


def wall_classes_through(
    lattice: BBFLattice,
    h: Sequence[Rational],
    norms: NormTargetSet | Iterable[int],
) -> list[WallReport]:
    """All primitive walls containing h: classes z with q(z,z) in the
    target set and q(z,h) = 0, sorted by class.

    h-perp is negative definite in signature (1, k), so this is the one
    penalty-form reduction of _wall_search with the row h: a search
    on the slab q(z,h) = 0 alone, whose ellipsoid shrinks as q(h,h)
    grows."""
    norms = NormTargetSet.coerce(norms)
    _require_hyperbolic(lattice)
    h = vec_rat(h)
    _require_positive(lattice, "h", h)
    (u, _), table = _wall_search(lattice.gram, [clear_denominators(h)], norms)
    return _primitive_walls(u, table)


def chamber_membership(
    lattice: BBFLattice,
    h: Sequence[Rational],
    norms: NormTargetSet | Iterable[int],
) -> ChamberMembership:
    """h is chamber-interior exactly when no wall passes through it."""
    walls = wall_classes_through(lattice, h, norms)
    return ChamberMembership(interior=not walls, walls=tuple(walls))


def separating_walls(
    lattice: BBFLattice,
    u: Sequence[Rational],
    v: Sequence[Rational],
    norms: NormTargetSet | Iterable[int],
) -> list[WallReport]:
    """All walls strictly separating two chamber-interior positive vectors
    of the same positive-cone component, each with the rational parameter
    where the segment from u to v crosses it, sorted by that parameter.
    OnWallError, carrying exactly the walls wall_classes_through reports,
    when u (checked first) or v lies on a wall.

    One Fincke-Pohst search answers both questions.  A wall z with
    q(z,z) = m, |m| <= M = max |target|, meets the segment at
    w_t = u + t (v - u) when q(z, w_t) = 0.  w_t-perp is negative definite;
    splitting u = s w_t + u'' with u'' in it, Cauchy-Schwarz for -q gives

        q(z, u)^2 = q(z, u'')^2 <= |m| B(t),
        B(t) = q(u, w_t)^2 / q(w_t, w_t) - q(u, u).

    With a, b, c = q(u,u), q(u,v), q(v,v),

        B'(t) = 2 t (b^2 - a c) (a (1 - t) + b t) / q(w_t, w_t)^2,

    and b^2 >= a c (reverse Cauchy-Schwarz for positive vectors in
    signature (1, k)) and b >= 0 make it >= 0 on [0, 1]: B is largest at
    t = 1, where B(1) = b^2 / c - a.  So every such z satisfies

        phi(z) = 2 q(z,u)^2 - a q(z,z) <= 2 M b^2 / c - M a

    for the majorant phi, positive definite since u-perp is negative
    definite.  Both sides scale alike with u and not at all with v, so the
    search runs on the denominator-cleared u', v' with the integer bound
    2 M q(u',v')^2 // q(v',v') - M q(u',u').  Walls through u (t = 0) and
    through v (t = 1) obey the same inequality: they are the candidates
    with q(z,u') = 0 or q(z,v') = 0.

    The search is _wall_search with no rows and the ray u': its shell
    values 2 q(z,u')^2 - phi(z) = a q(z,z) report only the z on a norm
    shell.  Each candidate then needs only the sign test
    q(z,u') q(z,v') <= 0, the primitivity test and, when it crosses, its
    parameter.
    """
    norms = NormTargetSet.coerce(norms)
    _require_hyperbolic(lattice)
    u, v = lattice._exact_rows((u, v))
    gram = lattice.gram
    u_int, v_int = clear_denominators(u), clear_denominators(v)
    gu, gv = mat_vec(gram, u_int), mat_vec(gram, v_int)
    a, b, c = dot(u_int, gu), dot(v_int, gu), dot(v_int, gv)
    # u', v' are positive multiples of u, v, so every sign read on them is
    # that of u, v; the lattice's form is called only to word an error
    for name, h, qh in (("u", u, a), ("v", v, c)):
        if qh <= 0:
            _require_positive(lattice, name, h)
    if b < 0:
        quv = lattice.inner(u, v)
        message = "endpoints lie in opposite positive-cone components (q(u,v) = %s)" % (quv,)
        raise InvariantViolation(message)
    big_m = norms.max_abs
    bound = 2 * big_m * b * b // c - big_m * a
    (reduced, _), table = _wall_search(gram, (), norms, ray=u_int, bound=bound)
    # with u = su u', v = sv v' and su = p1/p2, sv = r1/r2, the parameter
    # on the given segment is
    # su qzu / (su qzu - sv qzv) = alpha qzu / (alpha qzu - beta qzv)
    su, sv = Fraction(dot(u, gu), a), Fraction(dot(v, gu), b)
    alpha, beta = su.numerator * sv.denominator, sv.numerator * su.denominator
    # the hits are in the coordinates of the rows of U:
    # q(z,u') = x . (U G u') for z = x . U, and so for v'
    gu_red, gv_red = mat_vec(reduced, gu), mat_vec(reduced, gv)
    through_u, through_v, crossing = [], [], []
    for m, hits in table.items():
        for x in hits:
            qzu, qzv = sum(map(mul, x, gu_red)), sum(map(mul, x, gv_red))
            # z is primitive exactly when x is (U is unimodular)
            if qzu * qzv > 0 or content(x) != 1:
                continue
            z = sign_normalize(combine_rows(x, reduced))
            if qzu == 0:
                through_u.append(WallReport(wall_class=z, norm=m))
            if qzv == 0:
                through_v.append(WallReport(wall_class=z, norm=m))
            if qzu * qzv < 0:
                # alpha, beta > 0, so the denominator is nonzero
                t = Fraction(alpha * qzu, alpha * qzu - beta * qzv)
                crossing.append(WallReport(wall_class=z, norm=m, crossing_parameter=t))
    for name, walls in (("u", through_u), ("v", through_v)):
        if walls:
            walls.sort(key=lambda r: r.wall_class)
            message = "endpoint %s lies on walls %s" % (name, [w.wall_class for w in walls])
            raise OnWallError(message, tuple(walls))
    crossing.sort(key=lambda r: (r.crossing_parameter, r.wall_class))
    return crossing


def same_kahler_chamber(
    lattice: BBFLattice,
    h0: Sequence[Rational],
    h: Sequence[Rational],
    norms: NormTargetSet | Iterable[int],
) -> bool:
    """Two interior positive classes lie in the same chamber exactly when
    no wall separates them."""
    return not separating_walls(lattice, h0, h, norms)
