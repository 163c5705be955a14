#!/usr/bin/env python3
"""Census of walls around random positive classes of a hyperbolic lattice.

Samples integer classes of positive square in U + <-2k>, reports how often
they land exactly on a wall, and how many walls separate random interior
pairs.  A quick empirical look at the chamber structure the library decides
exactly.
"""
import argparse
import random
import sys
from collections import Counter

from bbf.enumeration import separating_walls, wall_classes_through
from bbf.lattice import BBFLattice, direct_sum, hyperbolic_plane


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--k", type=int, default=1, help="the <-2k> summand")
    ap.add_argument("--samples", type=int, default=300)
    ap.add_argument("--pairs", type=int, default=100)
    ap.add_argument("--coord-bound", type=int, default=9)
    ap.add_argument("--seed", type=int, default=1)
    args = ap.parse_args()
    if args.samples < 1:
        ap.error("--samples must be at least 1")
    if args.pairs < 0:
        ap.error("--pairs must be non-negative")

    lat = BBFLattice(direct_sum(hyperbolic_plane(), [[-2 * args.k]]))
    norms = [-2 * args.k]
    # h and -h lie on the same walls: every interior class is taken in the
    # positive-cone component of this fixed class, so any two pair positively
    h0 = (1, 1, 0)
    rng = random.Random(args.seed)
    bound = args.coord_bound

    on_wall = 0
    interior = []
    drawn = 0
    while drawn < args.samples:
        h = tuple(rng.randint(-bound, bound) for _ in range(3))
        if lat.q(h) <= 0:
            continue
        drawn += 1
        walls = wall_classes_through(lat, h, norms)
        if walls:
            on_wall += 1
        else:
            interior.append(h if lat.inner(h, h0) > 0 else tuple(-c for c in h))
    print("lattice U + <%d>, wall norms %s" % (-2 * args.k, norms))
    print("positive classes drawn   %d" % drawn)
    print("exactly on a wall        %d (%.1f%%)" % (on_wall, 100 * on_wall / drawn))

    counts = Counter()
    tested = args.pairs if len(interior) >= 2 else 0
    for _ in range(tested):
        u, v = rng.sample(interior, 2)
        counts[len(separating_walls(lat, u, v, norms))] += 1
    print("interior pairs tested    %d" % tested)
    for walls_between, how_many in sorted(counts.items()):
        print("  %3d separating walls: %d pairs" % (walls_between, how_many))
    return 0


if __name__ == "__main__":
    sys.exit(main())
