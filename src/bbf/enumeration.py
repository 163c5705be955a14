"""Finite enumeration of lattice vectors under quadratic constraints.

Short vectors in negative-definite lattices; candidate wall classes in
orthogonal complements; walls through a positive vector and walls separating
two positive vectors in a hyperbolic lattice; chamber membership built on
those.  Every accept/reject test is exact.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .exactlinalg import (
    IntVec,
    Rational,
    clear_denominators,
    combine_rows,
    content,
    dot,
    gram_restrict,
    inertia,
    is_symmetric,
    mat_vec,
    short_vectors,
    sign_normalize,
    vec_rat,
    vectors_of_norms,
)
from .lattice import (
    BBFLattice,
    Definiteness,
    InvariantViolation,
    RationalSubspace,
    SignatureError,
    definiteness,
)


@dataclass(frozen=True)
class NormTargetSet:
    """The admissible self-intersection numbers for wall classes: a finite,
    non-empty set of strictly negative integers."""

    norms: tuple[int, ...]

    def __init__(self, norms: Iterable[int]):
        values = tuple(sorted(set(int(x) for x in norms)))
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
    target = int(target)
    if target >= 0:
        raise InvariantViolation("target norm must be negative, got %d" % target)
    try:
        hits = vectors_of_norms([[-x for x in row] for row in gram], [-target])[-target]
    except ValueError:
        raise SignatureError(
            "enumeration requires a negative-definite gram (inertia %s)"
            % (inertia(gram),)
        ) from None
    return sorted(hits)


def walls_in_sublattice(
    gram: Sequence[Sequence[int]],
    basis: Sequence[Sequence[int]],
    norms: NormTargetSet,
) -> list[WallReport]:
    """The primitive classes z of the sublattice spanned by the rows of
    basis with q(z, z) in the target set, one per +- pair, as
    sign-normalized wall reports sorted by class (coordinates of gram).

    basis must be saturated (the integer points of its rational span), so
    z = c . basis is primitive exactly when its coefficient vector c is.
    The form must be negative definite on it: the leading-minor test that
    Fincke-Pohst runs anyway decides that, and SignatureError is raised
    otherwise.
    """
    if not basis:
        return []
    sub_gram = gram_restrict(basis, gram)
    try:
        table = vectors_of_norms([[-x for x in row] for row in sub_gram], [-m for m in norms])
    except ValueError:
        raise SignatureError(
            "sublattice has inertia %s; wall enumeration requires a "
            "negative-definite sublattice" % (inertia(sub_gram),)
        ) from None
    reports = [
        WallReport(wall_class=sign_normalize(combine_rows(coeffs, basis)), norm=-neg_norm)
        for neg_norm, hits in table.items()
        for coeffs in hits
        # coeffs and -coeffs give the same wall: keep the sign-normalized one
        if coeffs == sign_normalize(coeffs) and content(coeffs) == 1
    ]
    reports.sort(key=lambda r: r.wall_class)
    return reports


def mbm_candidates_in_complement(
    lattice: BBFLattice,
    subspace: RationalSubspace | Sequence[Sequence[Rational]],
    norms: NormTargetSet | Iterable[int],
) -> list[WallReport]:
    """All primitive sign-normalized integral classes orthogonal to the
    given positive-definite subspace whose norm lies in the target set.

    Requires the ambient signature to be (dim S, rank - dim S) so the
    complement is negative definite and the search finite.
    """
    norms = NormTargetSet.coerce(norms)
    basis = subspace.basis if isinstance(subspace, RationalSubspace) else tuple(
        vec_rat(r) for r in subspace
    )
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
    complement = lattice.orthogonal_complement_integral(basis)
    return walls_in_sublattice(lattice.gram, complement, norms)


def _require_hyperbolic(lattice: BBFLattice) -> None:
    p, n = lattice.signature()
    if p != 1:
        raise SignatureError(
            "operation needs a hyperbolic lattice of signature (1, k); got (%d, %d)"
            % (p, n)
        )


def wall_classes_through(
    lattice: BBFLattice,
    h: Sequence[Rational],
    norms: NormTargetSet | Iterable[int],
) -> list[WallReport]:
    """All primitive walls containing h: classes z with q(z,z) in the
    target set and q(z,h) = 0.  Finite because h-perp is negative definite
    in a hyperbolic lattice."""
    norms = NormTargetSet.coerce(norms)
    _require_hyperbolic(lattice)
    h = vec_rat(h)
    qh = lattice.q(h)
    if qh <= 0:
        raise InvariantViolation("q(h,h) must be positive, got %s" % (qh,))
    complement = lattice.orthogonal_complement_integral([h])
    return walls_in_sublattice(lattice.gram, complement, norms)


def chamber_membership(
    lattice: BBFLattice,
    h: Sequence[Rational],
    norms: NormTargetSet | Iterable[int],
) -> ChamberMembership:
    """h is chamber-interior exactly when no wall passes through it."""
    walls = wall_classes_through(lattice, h, norms)
    return ChamberMembership(interior=not walls, walls=tuple(walls))


def _segment_bound(lattice: BBFLattice, u, v) -> Fraction:
    """max over t in [0,1] of  q(u, w_t)^2 / q(w_t, w_t) - q(u, u)  for
    w_t = u + t (v - u).

    Where the bound comes from: a candidate wall class z crossing the
    segment at w is orthogonal to w, and w-perp is negative definite in a
    hyperbolic lattice.  Splitting u = a.w + u' with u' in w-perp and
    applying Cauchy-Schwarz for the definite form -q on w-perp gives

        q(z, u)^2 = q(z, u')^2 <= (-q(z,z)) (-q(u',u'))
                  = |q(z,z)| (q(u,w)^2/q(w,w) - q(u,u)).

    The right factor is what this function maximizes over the segment.  Its
    derivative numerator is linear in t (the quadratic terms cancel), so the
    exact maximum is attained at t = 0, t = 1 or the single rational
    critical point.
    """
    quu = Fraction(lattice.q(u))
    quv = Fraction(lattice.inner(u, v))
    diff = [b - a for a, b in zip(u, v)]
    a0, a1 = quu, quv - quu                       # q(u, w_t) = a0 + a1 t
    q0 = quu                                      # q(w_t, w_t) = q0 + q1 t + q2 t^2
    q1 = 2 * (quv - quu)
    q2 = Fraction(lattice.q(diff))

    def value(t: Fraction) -> Fraction:
        at = a0 + a1 * t
        qt = q0 + q1 * t + q2 * t * t
        assert qt > 0  # the positive cone component is convex
        return at * at / qt - quu

    candidates = [Fraction(0), Fraction(1)]
    denom = a1 * q1 - 2 * a0 * q2
    if denom != 0:
        tc = -(2 * a1 * q0 - a0 * q1) / denom
        if 0 < tc < 1:
            candidates.append(tc)
    return max(value(t) for t in candidates)


def separating_walls(
    lattice: BBFLattice,
    u: Sequence[Rational],
    v: Sequence[Rational],
    norms: NormTargetSet | Iterable[int],
) -> list[WallReport]:
    """All walls strictly separating two chamber-interior positive vectors
    of the same positive-cone component, each with the rational parameter
    where the segment from u to v crosses it, sorted by that parameter.

    Candidates are enumerated with Fincke-Pohst on the positive-definite
    form  phi(z) = 2 q(z,u)^2 / q(u,u) - q(z,z), bounded through the
    segment maximum computed by _segment_bound; see there for the
    derivation.  The search is complete: any separating z with
    q(z,z) = m in the target set satisfies
    phi(z) <= 2 |m| B_max / q(u,u) + |m|.
    """
    norms = NormTargetSet.coerce(norms)
    _require_hyperbolic(lattice)
    u = vec_rat(u)
    v = vec_rat(v)
    quu = lattice.q(u)
    qvv = lattice.q(v)
    if quu <= 0:
        raise InvariantViolation("q(u,u) must be positive, got %s" % (quu,))
    if qvv <= 0:
        raise InvariantViolation("q(v,v) must be positive, got %s" % (qvv,))
    quv = lattice.inner(u, v)
    if quv < 0:
        raise InvariantViolation(
            "endpoints lie in opposite positive-cone components (q(u,v) = %s)" % (quv,)
        )
    walls_u = wall_classes_through(lattice, u, norms)
    if walls_u:
        raise OnWallError("endpoint u lies on walls %s" % ([w.wall_class for w in walls_u],), tuple(walls_u))
    walls_v = wall_classes_through(lattice, v, norms)
    if walls_v:
        raise OnWallError("endpoint v lies on walls %s" % ([w.wall_class for w in walls_v],), tuple(walls_v))

    big_m = norms.max_abs
    b_max = _segment_bound(lattice, u, v)
    # phi(z) = 2 q(z,u)^2/q(u,u) - q(z,z) is invariant under positive
    # rescaling of u, so build its integral model q(u',u') * phi from the
    # denominator-cleared u' and scale the bound to match
    u_int = clear_denominators(u)
    gu = mat_vec(lattice.gram, u_int)
    gv = mat_vec(lattice.gram, v)
    quu_int = dot(u_int, gu)
    n = lattice.rank
    phi_gram = [
        [2 * gu[i] * gu[j] - quu_int * lattice.gram[i][j] for j in range(n)]
        for i in range(n)
    ]
    phi_bound = quu_int * (2 * big_m * b_max / Fraction(quu) + big_m)
    # a candidate's form value phi = 2 q(z,u')^2 - q(u',u') q(z,z) gives
    # q(z,z) exactly; u' is a positive multiple of u, so q(z,u') has the
    # sign of q(z,u)
    scaled_norms = {quu_int * m: m for m in norms}

    out = []
    for z, phi in short_vectors(phi_gram, phi_bound):
        qzu_int = dot(z, gu)
        qzz = scaled_norms.get(2 * qzu_int * qzu_int - phi)
        if qzz is None:
            continue
        qzv = dot(z, gv)
        # z and -z give the same wall: keep the sign-normalized one
        if qzu_int * qzv >= 0 or z != sign_normalize(z) or content(z) != 1:
            continue
        qzu = Fraction(lattice.inner(z, u))
        out.append(WallReport(wall_class=z, norm=qzz, crossing_parameter=qzu / (qzu - qzv)))
    out.sort(key=lambda r: (r.crossing_parameter, r.wall_class))
    return out


def same_kahler_chamber(
    lattice: BBFLattice,
    h0: Sequence[Rational],
    h: Sequence[Rational],
    norms: NormTargetSet | Iterable[int],
) -> bool:
    """Two interior positive classes lie in the same chamber exactly when
    no wall separates them."""
    return not separating_walls(lattice, h0, h, norms)
