#!/usr/bin/env python3
"""Run the fiber connectivity experiment at full scale and print a summary.

Walks discretized paths between random accepted fiber planes over a random
positive class of the chosen catalog lattice.  Every intermediate plane is
tested exactly; a wall hit means the plane was exactly orthogonal to a wall
class (codimension 2, so the expected count is zero).
"""
import argparse
import random
import sys
import time
from pathlib import Path

from bbf.catalog import builtin_catalog, load_catalog
from bbf.periods import fiber_connectivity_experiment


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--catalog", help="catalog JSON path (default: bundled)")
    ap.add_argument("--name", default="K3")
    ap.add_argument("--pairs", type=int, default=100)
    ap.add_argument("--steps", type=int, default=101)
    ap.add_argument("--seed", type=int, default=88)
    ap.add_argument("--x-seed", type=int, default=2026, help="seed for drawing the base class")
    args = ap.parse_args()

    catalog = load_catalog(Path(args.catalog)) if args.catalog else builtin_catalog()
    spec = catalog[args.name]
    lat = spec.lattice()

    rng = random.Random(args.x_seed)
    while True:
        x = tuple(rng.randint(-2, 2) for _ in range(lat.rank))
        if lat.q(x) > 0:
            break
    print("lattice %s (rank %d), base class q(x,x) = %s" % (spec.name, lat.rank, lat.q(x)))
    print("x =", ",".join(str(c) for c in x))

    t0 = time.perf_counter()
    report = fiber_connectivity_experiment(
        lat, x, pairs=args.pairs, steps=args.steps, norms=spec.mbm_norms, seed=args.seed
    )
    elapsed = time.perf_counter() - t0
    print("pairs tested          %d" % report.pairs_tested)
    print("paths found           %d" % report.paths_found)
    print("intermediate planes   %d" % report.planes_sampled)
    print("exact wall hits       %d" % report.wall_hits)
    print("geometric rejections  %d" % report.geometric_rejections)
    print("path retries          %d" % report.path_retries)
    print("elapsed               %.1fs (%.1f ms/plane)" % (elapsed, 1000 * elapsed / max(report.planes_sampled, 1)))
    return 0 if report.paths_found == report.pairs_tested and report.wall_hits == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
