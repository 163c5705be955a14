"""Period-map semantics on top of the lattice layer.

Membership tests for the two period images (single positive classes, and
positive oriented 3-spaces whose integral orthogonal complement avoids the
wall classes), twistor families of a class triple, equivalence of triples,
and randomized fiber/connectivity experiments over the orthogonal
complement of a fixed positive class.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .enumeration import (
    NormTargetSet,
    ReducedBasis,
    WallReport,
    _primitive_walls,
    _wall_search,
    mbm_candidates_in_complement,
)
from .exactlinalg import (
    IntVec,
    RatVec,
    Rational,
    clear_denominators,
    combine_rows,
    diagonalize_symmetric,
    dot,
    gauss_jordan,
    gram_restrict,
    kernel_int,
    lll_gram,
    mat_vec,
    primitive_part,
    sign_normalize,
    vec_rat,
)
from .lattice import (
    BBFLattice,
    InvariantViolation,
    OrientationRelation,
    OrientedPositiveSubspace,
    SignatureError,
    orientation_relation,
)


@dataclass(frozen=True)
class HKTripleClasses:
    """An ordered triple of pairwise orthogonal positive classes of equal
    norm; its span is an oriented positive 3-space."""

    lattice: BBFLattice
    x: RatVec
    y: RatVec
    z: RatVec

    def __init__(
        self,
        lattice: BBFLattice,
        x: Sequence[Rational],
        y: Sequence[Rational],
        z: Sequence[Rational],
    ):
        x, y, z = vec_rat(x), vec_rat(y), vec_rat(z)
        for u, v, name in ((x, y, "x,y"), (y, z, "y,z"), (x, z, "x,z")):
            val = lattice.inner(u, v)
            if val != 0:
                raise InvariantViolation("triple must be orthogonal; q(%s) = %s" % (name, val))
        qx, qy, qz = lattice.q(x), lattice.q(y), lattice.q(z)
        if not (qx == qy == qz):
            raise InvariantViolation(
                "triple must have equal norms, got %s, %s, %s" % (qx, qy, qz)
            )
        if qx <= 0:
            raise InvariantViolation("triple norm must be positive, got %s" % (qx,))
        object.__setattr__(self, "lattice", lattice)
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "z", z)

    @property
    def norm(self) -> Rational:
        return self.lattice.q(self.x)

    def span(self) -> OrientedPositiveSubspace:
        return OrientedPositiveSubspace(self.lattice, (self.x, self.y, self.z))


@dataclass(frozen=True)
class TwistorDirection:
    """A projective direction (a : b : c); unnormalized on purpose, since
    unit rational directions are sparse and the induced period plane only
    depends on the line through a x + b y + c z."""

    a: Fraction
    b: Fraction
    c: Fraction

    def __init__(self, a: Rational, b: Rational, c: Rational):
        a, b, c = Fraction(a), Fraction(b), Fraction(c)
        if a == b == c == 0:
            raise InvariantViolation("twistor direction must be nonzero")
        object.__setattr__(self, "a", a)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c", c)

    def coords(self) -> tuple[Fraction, Fraction, Fraction]:
        return (self.a, self.b, self.c)


@dataclass(frozen=True)
class TwistorFiber:
    """The classes attached to one member of a twistor family: the Kahler
    direction omega and the oriented period plane orthogonal to it inside
    the triple's 3-space."""

    omega: RatVec
    plane: OrientedPositiveSubspace


def in_symplectic_period_image(lattice: BBFLattice, v: Sequence[Rational]) -> bool:
    """Period-image test for single classes: q(v, v) > 0, nothing else."""
    return lattice.q(v) > 0


@dataclass(frozen=True)
class PeriodImageResult:
    in_image: bool
    witnesses: tuple[WallReport, ...]

    def __bool__(self) -> bool:
        return self.in_image


def in_hk_period_image(
    lattice: BBFLattice,
    w: OrientedPositiveSubspace | Sequence[Sequence[Rational]],
    norms: NormTargetSet | Iterable[int],
) -> PeriodImageResult:
    """A positive oriented 3-space, given as an OrientedPositiveSubspace or
    by its three rows, is in the image exactly when its integral orthogonal
    complement carries no class with norm in the target set; the offending
    classes are returned as witnesses."""
    rows = w.basis if isinstance(w, OrientedPositiveSubspace) else w
    if len(rows) != 3:
        raise InvariantViolation("period-image test needs exactly 3 basis rows")
    witnesses = mbm_candidates_in_complement(lattice, rows, norms)
    return PeriodImageResult(in_image=not witnesses, witnesses=tuple(witnesses))


def forgetful_map(triple: HKTripleClasses) -> RatVec:
    """Project a triple to its first class."""
    return triple.x


def _cyclic_orthogonal_frame(
    d: tuple[Fraction, Fraction, Fraction]
) -> tuple[IntVec, IntVec]:
    """Primitive integer basis (p1, p2) of the Euclidean orthogonal of d in
    3-space, oriented so that (d, p1, p2) is positively oriented, and
    reducing to the literal cyclic axes when d is a coordinate direction:
    p1 is e_{j+1} made orthogonal to d, and p2 = d x p1."""
    j = next(i for i in range(3) if d[i] != 0)
    nn = d[0] * d[0] + d[1] * d[1] + d[2] * d[2]
    k = (j + 1) % 3
    p1 = clear_denominators([(nn if i == k else 0) - d[k] * d[i] for i in range(3)])
    p2 = clear_denominators([
        d[1] * p1[2] - d[2] * p1[1],
        d[2] * p1[0] - d[0] * p1[2],
        d[0] * p1[1] - d[1] * p1[0],
    ])
    if d[j] > 0:
        return p1, p2
    return tuple(-c for c in p2), p1


def twistor_member(triple: HKTripleClasses, direction: TwistorDirection) -> TwistorFiber:
    """The family member in direction (a : b : c): omega = a x + b y + c z
    and the oriented plane orthogonal to omega inside the triple's span,
    with (omega, plane) matching the span's orientation.

    The coordinate directions recover the three defining Kahler classes and
    their complementary planes: direction (1,0,0) gives (x, span(y, z)).
    """
    d = direction.coords()
    frame = (triple.x, triple.y, triple.z)
    omega = vec_rat(combine_rows(d, frame))
    p1, p2 = _cyclic_orthogonal_frame(d)
    plane = OrientedPositiveSubspace(
        triple.lattice, (combine_rows(p1, frame), combine_rows(p2, frame))
    )
    return TwistorFiber(omega=omega, plane=plane)


def hk_equivalence(t1: HKTripleClasses, t2: HKTripleClasses) -> bool:
    """Triples are equivalent when they span the same oriented 3-space:
    any two orthogonal equal-norm oriented frames of that space differ by a
    rotation, and the norm ratio is the free overall scaling."""
    if t1.lattice.gram != t2.lattice.gram:
        return False
    return (
        orientation_relation(t1.span(), t2.span())
        is OrientationRelation.SAME_ORIENTED_SUBSPACE
    )


# ---------------------------------------------------------------------------
# fiber sampling over the orthogonal complement of a fixed positive class
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FiberPoint:
    """A point of the fiber over x: an oriented positive 2-plane inside the
    orthogonal complement of x."""

    x: RatVec
    plane: OrientedPositiveSubspace

    def __init__(self, x: Sequence[Rational], plane: OrientedPositiveSubspace):
        x = vec_rat(x)
        for row in plane.basis:
            val = plane.lattice.inner(x, row)
            if val != 0:
                raise InvariantViolation(
                    "fiber plane must be orthogonal to the base class; q = %s" % (val,)
                )
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "plane", plane)


@dataclass(frozen=True)
class FiberSample:
    point: FiberPoint
    accepted: bool
    witnesses: tuple[WallReport, ...]


@dataclass(frozen=True)
class ConnectivityReport:
    pairs_tested: int
    paths_found: int
    wall_hits: int
    planes_sampled: int
    geometric_rejections: int
    path_retries: int


class _FiberFrame:
    """Precomputed exact frame for all fiber work over one positive x:
    an LLL-improved integral basis of the complement of x (saturated, since
    it is a unimodular transform of kernel_int's), the Gram in those frame
    coordinates, and a deterministic pair of orthogonal positive seed
    vectors used to aim random plane draws into the (thin) positive cone.

    Planes are tested in frame coordinates: plane_walls finds the wall
    classes of a plane, which to_ambient maps back, by one penalty-form
    reduction on the frame Gram with the plane's two rows.  The frame
    lattice is the same for every plane over x, so along a path each
    plane's reduced basis warm-starts the next plane's reduction.
    """

    def __init__(self, lattice: BBFLattice, x: Sequence[Rational], norms: NormTargetSet):
        p, nneg = lattice.signature()
        if p != 3:
            raise SignatureError(
                "fiber experiments need ambient signature (3, k); got (%d, %d)" % (p, nneg)
            )
        x = vec_rat(x)
        qx = lattice.q(x)
        if qx <= 0:
            raise InvariantViolation("base class must be positive, q(x,x) = %s" % (qx,))
        self.lattice = lattice
        self.x = x
        self.norms = norms
        basis = kernel_int([mat_vec(lattice.gram, clear_denominators(x))])
        # improve coordinates: Euclidean LLL keeps later Gram entries small
        euclid = [[dot(r1, r2) for r2 in basis] for r1 in basis]
        u = lll_gram(euclid)[0]
        self.basis = [combine_rows(row, basis) for row in u]
        self.gram_n = gram_restrict(self.basis, lattice.gram)
        self.dim = len(basis)
        self.seeds = self._seed_pair()

    # -- coordinates ---------------------------------------------------------

    def to_ambient(self, coeffs: Sequence[int]) -> IntVec:
        return combine_rows(coeffs, self.basis)

    # -- seed construction ----------------------------------------------------

    def _seed_pair(self) -> tuple[list[int], list[int]]:
        """Two orthogonal positive integer vectors in the complement of x,
        found by integer elimination: take the positive rows of the lattice's
        diagonalization, cut their span with x by the hyperplane orthogonal
        to x, and diagonalize the restriction.  At least two positive
        directions always survive in signature (3, k).  The echelon rows
        s_j of the span share one positive scale, and so do the cut rows
        w_j = sign(c_p) (c_p s_j - c_j s_p), c_j = q(s_j, x), so each
        primitive seed is the one rational elimination would give.

        The seeds a are placed in the frame by one solve: their coordinates
        c solve gram_n . c = basis . G . a, read off the echelon form of
        [gram_n | r1 r2], and are integral because the frame is saturated
        (InvariantViolation otherwise)."""
        gram = self.lattice.gram
        # three positive rows: the signature, which the constructor checked,
        # is the sign count of this same diagonalization
        t, diag = self.lattice._diagonal
        x = clear_denominators(self.x)
        span = gauss_jordan([x] + [row for row, dv in zip(t, diag) if dv > 0])[0]
        # c_j = q(s_j, x); x is in the span, so some c_j is nonzero
        gx = mat_vec(gram, x)
        cut = [dot(row, gx) for row in span]
        p = next(j for j, c in enumerate(cut) if c != 0)
        if cut[p] < 0:
            cut = [-c for c in cut]
        w_rows = [
            [cut[p] * a - cut[j] * b for a, b in zip(span[j], span[p])]
            for j in range(len(span)) if j != p
        ]
        tw, dw = diagonalize_symmetric(gram_restrict(w_rows, gram))
        seeds = [primitive_part(combine_rows(trow, w_rows)) for trow, dv in zip(tw, dw) if dv > 0]
        if len(seeds) < 2:
            raise InvariantViolation(
                "complement of a positive class must contain a positive plane; found %d "
                "positive directions" % len(seeds)
            )
        # gram_n is symmetric and nonsingular: its echelon rows are
        # |det| [I | C], C the two seeds' coordinates as columns
        rhs = [mat_vec(self.basis, mat_vec(gram, a)) for a in seeds[:2]]
        rows, _, det = gauss_jordan([g + [r1, r2] for g, r1, r2 in zip(self.gram_n, *rhs)])
        placed = []
        for k, a in enumerate(seeds[:2]):
            c, rest = zip(*(divmod(row[self.dim + k], abs(det)) for row in rows))
            if any(rest) or self.to_ambient(c) != a:
                raise InvariantViolation("seed %s is not an integral class orthogonal to x" % (a,))
            placed.append(list(c))
        return placed[0], placed[1]

    # -- plane tests -----------------------------------------------------------

    def plane_shape(self, u: Sequence[int], v: Sequence[int]) -> bool:
        """True when (u, v) spans a positive-definite 2-plane."""
        au = mat_vec(self.gram_n, u)
        quu = dot(u, au)
        if quu <= 0:
            return False
        quv = dot(v, au)
        qvv = dot(v, mat_vec(self.gram_n, v))
        return quu * qvv - quv * quv > 0

    def plane_walls(
        self, u: Sequence[int], v: Sequence[int], start: ReducedBasis | None = None
    ) -> tuple[list[WallReport], ReducedBasis]:
        """(walls, basis): the wall classes, in frame coordinates,
        orthogonal to x, u and v, from _wall_search with the rows u, v
        on the frame Gram, which is negative definite on their complement
        when plane_shape holds.  The walls are empty exactly when the
        plane's 3-space passes the period-image test.  basis is the
        reduced basis with its Gram (None after a cold call); the next
        plane of a path passes it back as start.  start changes only the
        speed, never the walls."""
        basis, table = _wall_search(self.gram_n, (u, v), self.norms, start)
        return _primitive_walls(basis[0], table), basis


# draw budgets of the fiber samplers, and the path attempts per pair
_PLANE_TRIES = 400
_ACCEPT_TRIES = 2000
_PATH_RETRIES = 30


def _sample_plane(frame: _FiberFrame, rng: random.Random):
    """Draw integer plane bases near the positive seeds until the span is
    positive definite; importance sampling is needed because the positive
    cone is a thin cap of the full coordinate box."""
    p1, p2 = frame.seeds
    m = frame.dim
    for _ in range(_PLANE_TRIES):
        a1, a2 = rng.randint(2, 4), rng.randint(0, 1)
        b1, b2 = rng.randint(2, 4), rng.randint(0, 1)
        u = [a1 * p1[i] + a2 * p2[i] + rng.randint(-2, 2) for i in range(m)]
        v = [b2 * p1[i] + b1 * p2[i] + rng.randint(-2, 2) for i in range(m)]
        if frame.plane_shape(u, v):
            return u, v
    raise InvariantViolation("could not sample a positive plane; base class too special")


def sample_fiber(
    lattice: BBFLattice,
    x: Sequence[Rational],
    count: int,
    norms: NormTargetSet | Iterable[int],
    seed: int,
) -> list[FiberSample]:
    """Draw random rational 2-planes in the complement of x (retrying until
    the span is positive), and mark each by the period-image test of the
    3-space it spans with x.  Deterministic for a fixed seed.
    InvariantViolation for a negative count."""
    if count < 0:
        raise InvariantViolation("sample count must be non-negative, got %d" % count)
    norms = NormTargetSet.coerce(norms)
    frame = _FiberFrame(lattice, x, norms)
    rng = random.Random(seed)
    out = []
    for _ in range(count):
        u, v = _sample_plane(frame, rng)
        plane = OrientedPositiveSubspace(
            lattice, (frame.to_ambient(u), frame.to_ambient(v))
        )
        point = FiberPoint(frame.x, plane)
        reports = tuple(sorted(
            (WallReport(sign_normalize(frame.to_ambient(w.wall_class)), w.norm) for w in frame.plane_walls(u, v)[0]),
            key=lambda r: r.wall_class,
        ))
        out.append(FiberSample(point=point, accepted=not reports, witnesses=reports))
    return out


def _sample_accepted(frame: _FiberFrame, rng: random.Random):
    for _ in range(_ACCEPT_TRIES):
        u, v = _sample_plane(frame, rng)
        if not frame.plane_walls(u, v)[0]:
            return u, v
    raise InvariantViolation("could not sample an accepted fiber point")


def fiber_connectivity_experiment(
    lattice: BBFLattice,
    x: Sequence[Rational],
    pairs: int,
    steps: int,
    norms: NormTargetSet | Iterable[int],
    seed: int,
) -> ConnectivityReport:
    """Empirical connectivity of the accepted locus: for each pair of
    accepted fiber points, walk a discretized path of rational intermediate
    planes (straight-line interpolation of the bases first, then random
    quadratic bumps on rejection) and count whether an all-accepted path
    shows up within the retry budget.

    wall_hits counts the intermediate planes that were exactly orthogonal
    to a wall class; since the walls have codimension 2 in the plane
    Grassmannian, generic rational paths should report zero.

    Prefer a prime number of steps.  A wall class z orthogonal to both
    endpoint vectors on one side crosses the straight path at the rational
    parameter q(z,v0) / (q(z,v0) - q(z,v1)); that parameter lands on the
    k/steps grid only when steps divides a multiple of the pairing
    difference, which a prime steps larger than the typical pairings rules
    out.  Composite step counts (e.g. 50 or 51) do produce exact hits on
    real data; the retry machinery still finds paths, but the hit counter
    records them.

    InvariantViolation for negative pairs or fewer than one step.
    """
    if pairs < 0:
        raise InvariantViolation("pair count must be non-negative, got %d" % pairs)
    if steps < 1:
        raise InvariantViolation("step count must be positive, got %d" % steps)
    norms = NormTargetSet.coerce(norms)
    frame = _FiberFrame(lattice, x, norms)
    rng = random.Random(seed)
    m = frame.dim
    paths_found = wall_hits = planes_sampled = geo_rejects = retries = 0
    for _ in range(pairs):
        u0, v0 = _sample_accepted(frame, rng)
        u1, v1 = _sample_accepted(frame, rng)
        found = False
        for attempt in range(_PATH_RETRIES):
            if attempt == 0:
                du = dv = [0] * m
            else:
                amp = 1 + attempt // 5
                du = [rng.randint(-amp, amp) for _ in range(m)]
                dv = [rng.randint(-amp, amp) for _ in range(m)]
                retries += 1
            cu = [u0[i] + u1[i] + du[i] for i in range(m)]
            cv = [v0[i] + v1[i] + dv[i] for i in range(m)]
            good = True
            start = None  # each plane warm-starts the next one's reduction
            for k in range(1, steps):
                s0, s1, s2 = (steps - k) ** 2, k * (steps - k), k * k
                uk = primitive_part([s0 * u0[i] + s1 * cu[i] + s2 * u1[i] for i in range(m)])
                vk = primitive_part([s0 * v0[i] + s1 * cv[i] + s2 * v1[i] for i in range(m)])
                planes_sampled += 1
                if not frame.plane_shape(uk, vk):
                    geo_rejects += 1
                    good = False
                    break
                walls, start = frame.plane_walls(uk, vk, start)
                if walls:
                    wall_hits += 1
                    good = False
                    break
            if good:
                found = True
                break
        if found:
            paths_found += 1
    return ConnectivityReport(
        pairs_tested=pairs,
        paths_found=paths_found,
        wall_hits=wall_hits,
        planes_sampled=planes_sampled,
        geometric_rejections=geo_rejects,
        path_retries=retries,
    )
