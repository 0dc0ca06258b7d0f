#!/usr/bin/env python3
"""Design-space exploration: how small can the context memories go?

The paper's motivation: context memories dominate PE area and energy,
so size them for the application domain instead of over-provisioning.
This script sweeps homogeneous CM depths for each paper kernel, finds
the smallest depth the context-aware flow can still map, and prints
the area saved versus the HOM64 baseline.

It is a thin client of the :mod:`repro.dse` subsystem: the depth
ladder, the per-rung specs and the early-exit minimum-depth search
all live there (``repro.dse.space`` / ``repro.dse.runner``), and the
general tool — Pareto frontiers over heterogeneous spaces, pluggable
search strategies — is ``python -m repro explore``.  What this
example keeps is the paper-shaped narrative: one table, smallest
mappable depth per kernel, area versus HOM64.

Rounds run through the parallel runtime (``--workers N``) and
*stream*: a one-line verdict is printed the moment a kernel's attempt
lands.  Completed points persist in the result cache
(``~/.cache/repro`` or ``$REPRO_CACHE_DIR``), so re-running only maps
new points.  ``--shard i/N`` prewarms one deterministic slice of the
full depth grid into a shared cache directory; after all N shards
have run, an unsharded re-run answers entirely from cache.
"""

import argparse
import sys

from repro.arch.configs import make_cgra
from repro.dse.runner import minimum_ladder_depths
from repro.dse.space import DEPTH_LADDER, ladder_grid_specs
from repro.errors import ReproError
from repro.kernels import PAPER_KERNEL_ORDER
from repro.power.area import AreaModel
from repro.runtime import (
    ResultCache,
    parse_shard,
    run_sweep,
    shard_specs,
)
from repro.runtime.sweep import DETERMINISTIC_ERRORS


def stream_progress(update):
    """Per-point narration: verdicts land as workers finish them."""
    print(f"    {update.describe()}", file=sys.stderr, flush=True)


def prewarm_shard(workers, cache, shard):
    """Compute one shard of the *full* depth × kernel grid.

    The adaptive early-exit ladder cannot run per-shard: which
    kernels are "resolved" depends on points another machine owns, so
    a sharded ladder could report a too-high minimum as if it were
    the answer.  Instead, shard mode computes its slice of the whole
    grid into the shared cache; once every shard has run, an
    unsharded re-run resolves the ladder entirely from cache hits.
    """
    grid = ladder_grid_specs(PAPER_KERNEL_ORDER, DEPTH_LADDER)
    # Plain (cache-blind) sharding on purpose: shards may run at
    # different times, and cache-aware assignment is only coherent
    # when every producer sees the same cache state.
    specs = shard_specs(grid, *shard)
    result = run_sweep(specs, workers=workers, cache=cache,
                       progress=stream_progress)
    for spec, point in zip(result.specs, result.points):
        if point.error not in DETERMINISTIC_ERRORS:
            # A crash is never cached, so this shard's contribution
            # would silently be missing — fail loudly, like the
            # unsharded ladder does.
            raise ReproError(f"{spec.describe()}: {point.error}")
    print(f"shard {shard[0]}/{shard[1]}: {result.summary()}")
    print("prewarm only — re-run without --shard once every shard "
          "has finished to get the minimum-depth table.")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workers", type=int, default=1,
                        help="worker processes for the sweep")
    parser.add_argument("--no-cache", action="store_true",
                        help="bypass the persistent result cache")
    parser.add_argument("--shard", default=None, metavar="I/N",
                        help="prewarm only shard I of N of the full "
                             "depth grid into the shared cache "
                             "($REPRO_CACHE_DIR), then exit; re-run "
                             "unsharded for the table")
    args = parser.parse_args(argv)

    if args.shard and args.no_cache:
        # Shard mode's only output *is* the shared cache; without it
        # every mapped point would be silently thrown away.
        parser.error("--shard requires the cache (drop --no-cache)")
    cache = None if args.no_cache else ResultCache()
    if args.shard:
        prewarm_shard(args.workers, cache, parse_shard(args.shard))
        return

    def round_report(depth, result):
        print(f"depth {depth:2d}: {result.summary()}")

    smallest = minimum_ladder_depths(
        PAPER_KERNEL_ORDER, DEPTH_LADDER, workers=args.workers,
        cache=cache, progress=stream_progress,
        round_report=round_report)
    print()
    model = AreaModel()
    baseline = model.cgra_total(make_cgra("HOM64", cm_depths=[64] * 16))
    print(f"{'kernel':14s} {'min CM':>7s} {'max words':>10s} "
          f"{'area mm^2':>10s} {'vs HOM64':>9s}")
    for name in PAPER_KERNEL_ORDER:
        if name not in smallest:
            print(f"{name:14s} {'> 64':>7s}")
            continue
        depth, point = smallest[name]
        cgra = make_cgra(f"HOM{depth}", cm_depths=[depth] * 16)
        area = model.cgra_total(cgra)
        print(f"{name:14s} {depth:7d} "
              f"{max(point.tile_words):10d} "
              f"{area:10.3f} {area / baseline:8.1%}")
    print("\nSmaller context memories -> smaller, lower-leakage array;")
    print("this sweep is the sizing step the paper's flow enables.")


if __name__ == "__main__":
    main()
