"""The benchmark's workloads: seeded inputs, the public bbf call each one
times, and output checks that do not trust the code under test.

Inputs come only from the seed.  Checks recompute every quadratic form
value with plain integer arithmetic on the Gram matrix, never through bbf.
This module imports nothing from bbf at load time; the bbf package is
passed in, so that a set-up timing can import it inside its timed region.
"""
from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Any, Callable, Iterator


class Form:
    """u . gram . v over the integers, with the Gram kept sparse."""

    def __init__(self, gram):
        self.rows = [[(j, x) for j, x in enumerate(row) if x] for row in gram]

    def __call__(self, u, v) -> int:
        rows = self.rows
        return sum(ui * sum(x * v[j] for j, x in rows[i]) for i, ui in enumerate(u) if ui)


def primitive(v) -> bool:
    g = 0
    for x in v:
        g = gcd(g, x)
    return g == 1


@dataclass(frozen=True)
class Workload:
    name: str
    lattices: Callable[[Any, dict], dict]     # bbf, catalog -> lattices by key
    inputs: Callable[[Any, dict, int], Iterator]  # bbf, lattices, seed -> inputs
    call: Callable[[Any, dict, Any], Any]      # bbf, lattices, input -> output
    check: Callable[[dict, Any, Any], list]    # lattices, input, output -> problems
    record: Callable[[Any, Any], tuple]        # input, output -> exact digest record
    planes: Callable[[Any], int]               # output -> subspaces tested
    tail_percentile: int                       # see README.md, "End-to-end metrics"
    batch: int | None                          # inputs a timed run cycles through; None: no repeats
    traced_calls_per_s: float                  # traced calls per second of run
    refusal: str | None = None                 # InvariantViolation message counted as refused


# -- fiber-k3 ------------------------------------------------------------------
# The paper's connectivity experiment, acceptance 8 one pair at a time: each
# call has its own base class x, uniform on [-2, 2]^22 given q(x, x) > 0 and
# drawn by rejection as in acceptance 8, and its own experiment seed.  About
# one draw in 5 * 10^4 is accepted, about 1.1 s of untimed generation per x.
# The fiber sampler gives up on a few percent of base classes with this
# refusal; it is counted, not failed, so that a change to the sampler shows.

FIBER_STEPS = 101
FIBER_BOX = (-2, -1, 0, 1, 2)
FIBER_REFUSAL = "could not sample a positive plane; base class too special"


def _k3(bbf, catalog) -> dict:
    return {"K3": catalog["K3"].lattice()}


def _fiber_inputs(bbf, lattices, seed):
    form = Form(lattices["K3"].gram)
    rng = random.Random(seed)
    while True:
        x = tuple(rng.choices(FIBER_BOX, k=22))
        if form(x, x) > 0:
            yield x, rng.randrange(2 ** 31)


def _fiber_call(bbf, lattices, inp):
    x, seed = inp
    return bbf.fiber_connectivity_experiment(
        lattices["K3"], x, pairs=1, steps=FIBER_STEPS, norms=[-2], seed=seed
    )


def _fiber_check(lattices, inp, report):
    problems = []
    if report.paths_found != report.pairs_tested:
        problems.append("paths_found %d != pairs_tested %d" % (report.paths_found, report.pairs_tested))
    if report.wall_hits != 0:
        problems.append("wall_hits %d" % report.wall_hits)
    return problems


def _fiber_record(inp, report):
    return (
        inp, report.pairs_tested, report.paths_found, report.wall_hits,
        report.planes_sampled, report.geometric_rejections, report.path_retries,
    )


# -- walls-hyp -----------------------------------------------------------------
# Segment wall searches in U + <-2k>.  Each k has a pool of interior
# endpoints with coordinates up to 60, checked with chamber_membership before
# the first call.  The cost of a call follows q(u,v)^2 / (q(u,u) q(v,v)) --
# the squared cosh of the hyperbolic distance, which sets the Fincke-Pohst
# ellipsoid -- almost linearly, so pairs are drawn in strata: k and a window
# of width 1/4 of that squared cosh in [4, 8] take turns, and a seed changes
# the pairs but hardly the work.  Unrestricted pairs give a heavy tail (a few
# calls with 10^5 candidates) that no run of fixed length measures steadily.

WALL_KS = (1, 2, 3)
WALL_COORD = 60
WALL_POOL = 160
WALL_COSH2 = tuple((Fraction(i, 4), Fraction(i + 1, 4)) for i in range(16, 32))


def _hyp(bbf, catalog) -> dict:
    return {
        k: bbf.BBFLattice(bbf.direct_sum(bbf.hyperbolic_plane(), [[-2 * k]]))
        for k in WALL_KS
    }


def _walls_inputs(bbf, lattices, seed):
    rng = random.Random(seed)
    pairs = {}
    for k in WALL_KS:
        form = Form(lattices[k].gram)
        pool: dict[tuple, int] = {}  # interior endpoint -> q(h, h)
        while len(pool) < WALL_POOL:
            h = tuple(rng.randint(-WALL_COORD, WALL_COORD) for _ in range(3))
            if h not in pool and form(h, h) > 0 and bbf.chamber_membership(lattices[k], h, [-2 * k]).interior:
                pool[h] = form(h, h)
        points = list(pool.items())
        for lo, hi in WALL_COSH2:
            pairs[k, lo] = [
                (u, v)
                for i, (u, quu) in enumerate(points)
                for v, qvv in points[i + 1:]
                if form(u, v) > 0 and lo * quu * qvv <= form(u, v) ** 2 < hi * quu * qvv
            ]
    strata = [(k, lo) for lo, _ in WALL_COSH2 for k in WALL_KS]
    i = 0
    while True:
        k, lo = strata[i % len(strata)]
        u, v = rng.choice(pairs[k, lo])
        if rng.random() < 0.5:
            u, v = v, u
        yield k, u, v
        i += 1


def _walls_call(bbf, lattices, inp):
    k, u, v = inp
    return bbf.separating_walls(lattices[k], u, v, [-2 * k])


def _walls_check(lattices, inp, reports):
    k, u, v = inp
    form = Form(lattices[k].gram)
    problems = []
    for w in reports:
        z = w.wall_class
        qzu, qzv = form(z, u), form(z, v)
        if not primitive(z):
            problems.append("wall %s is not primitive" % (z,))
        if form(z, z) != -2 * k or w.norm != -2 * k:
            problems.append("wall %s has norm %d (reported %d)" % (z, form(z, z), w.norm))
        if qzu * qzv >= 0:
            problems.append("wall %s does not separate: q(z,u)=%d q(z,v)=%d" % (z, qzu, qzv))
        elif w.crossing_parameter != Fraction(qzu, qzu - qzv):
            problems.append("wall %s crossing %s != %s" % (z, w.crossing_parameter, Fraction(qzu, qzu - qzv)))
    if len({w.wall_class for w in reports}) != len(reports):
        problems.append("repeated wall classes")
    return problems


def _walls_record(inp, reports):
    return inp, tuple((w.wall_class, w.norm, str(w.crossing_parameter)) for w in reports)


def _one(result) -> int:
    return 1


WORKLOADS = {
    w.name: w
    for w in (
        Workload("fiber-k3", _k3, _fiber_inputs, _fiber_call, _fiber_check, _fiber_record,
                 planes=lambda report: report.planes_sampled, tail_percentile=75, batch=None,
                 traced_calls_per_s=0.2, refusal=FIBER_REFUSAL),
        Workload("walls-hyp", _hyp, _walls_inputs, _walls_call, _walls_check, _walls_record,
                 planes=_one, tail_percentile=79, batch=48, traced_calls_per_s=40),
    )
}
