"""Seeded inputs, correctness checks and timed runs of the workloads.

``cold-sweep`` and ``tight-cm`` are batches: the seed draws the
points and their input data, and ``run_sweep`` computes them with
:data:`WORKERS` processes into an empty cache.  ``warm-serve`` is a
closed loop: one client sends a seeded mix of requests, one at a
time, to an in-process ``repro serve`` whose cache the prefill filled.

Draws are *balanced*: a proposal is kept only when its nominal cost,
cycles, energy and largest per-point memory growth (``nominal.json``,
measured once) sit close to the typical proposal's.  Runs at
different seeds then carry the same amount of work, so their metrics
compare; the points themselves, the input data and the request mix
still change with the seed.
"""

from __future__ import annotations

import collections
import functools
import json
import os
import pathlib
import random
import shutil
import statistics
import threading
import time

import numpy as np

from repro.dse.space import Design, static_unmappable
from repro.eval.experiments import FIGURE_VARIANTS, figure_point_specs
from repro.kernels import PAPER_KERNEL_ORDER, get_kernel
from repro.mapping.flow import VARIANTS, FlowOptions
from repro.runtime import (
    PointSpec,
    ResultCache,
    point_key,
    point_to_json,
    run_sweep,
    spec_from_json,
    spec_to_json,
    sweep_specs,
)
from repro.runtime.backends import output_digest
from repro.runtime.sweep import DETERMINISTIC_ERRORS, LATENCY_CONFIGS

HERE = pathlib.Path(__file__).resolve().parent

#: Worker processes of the batch workloads (the host has 2 cores).
WORKERS = 2

#: One warm-serve block of ten requests per this many seconds of
#: ``--seconds``, and never fewer than ten blocks: the 90th percentile
#: needs 100 requests.
WARM_BLOCK_SECONDS = 2.5

#: Whole sweeps in one block of ten warm-serve requests.  The served
#: whole sweep is the one served workload ROADMAP.md names, so it
#: carries most of the served points; no recorded traffic gives the
#: shares of the request shapes, which are a chosen design.
WARM_SWEEPS_PER_BLOCK = 2

#: Relative tolerances of a balanced batch draw: summed nominal cost,
#: cycles and energy, and the largest memory growth of one point (it
#: sets the pool's peak resident memory).
BALANCE = (0.03, 0.01, 0.01, 0.05)

#: Servable figures: fig6-fig8 (35 points each), fig10 and table2 (21).
FIGURES = tuple(FIGURE_VARIANTS) + ("fig10", "table2")

#: Point fields a served point must share with its prefill entry.
SERVED_FIELDS = ("mapped", "cycles", "energy_uj", "output_digest", "error")


class BenchError(Exception):
    """The benchmark cannot run (as opposed to a failed check)."""


@functools.lru_cache(maxsize=1)
def nominal():
    return json.loads((HERE / "nominal.json").read_text())


# ----------------------------------------------------------------------
# Balanced seeded draws
# ----------------------------------------------------------------------
def balanced_draw(rng, propose, features, tolerances, tries=20000):
    """Rejection-sample ``propose(rng)`` toward the typical proposal.

    The targets are the medians of ``features`` over 301 proposals of
    a fixed internal stream, so they do not depend on the seed.  The
    first proposal whose every feature lies within its relative
    tolerance of the target is returned (the closest one if none
    does within ``tries``).
    """
    fixed = random.Random(0)
    samples = [features(propose(fixed)) for _ in range(301)]
    targets = [statistics.median(column) for column in zip(*samples)]
    best, best_gap = None, None
    for _ in range(tries):
        candidate = propose(rng)
        gap = max(abs(value - target) / (tolerance * target)
                  for value, target, tolerance
                  in zip(features(candidate), targets, tolerances))
        if gap <= 1.0:
            return candidate
        if best_gap is None or gap < best_gap:
            best, best_gap = candidate, gap
    return best


def _heaviest_first(keys, cost):
    """Submission order: nominal cost descending, so the two workers
    finish close together and the run measures throughput, not which
    worker drew the last heavy point."""
    return sorted(keys, key=lambda key: (-cost[key], key))


def cold_sweep_specs(seed, seconds):
    """Every kernel on HOM64 (the paper's baseline) and on
    ``columns - 1`` of the context-limited configs, each point at a
    seeded flow variant; ``columns`` grows with ``seconds``."""
    table = nominal()["grid"]["points"]
    cost = {key: row[0] for key, row in table.items()}
    baseline, limited = LATENCY_CONFIGS[0], LATENCY_CONFIGS[1:]
    per_column = sum(cost.values()) / (len(LATENCY_CONFIGS) * len(VARIANTS))
    columns = min(len(LATENCY_CONFIGS),
                  max(2, round(seconds * WORKERS / per_column)))
    variants = tuple(VARIANTS)

    def propose(rng):
        keys = []
        for kernel in PAPER_KERNEL_ORDER:
            configs = [baseline] + rng.sample(limited, columns - 1)
            keys += [f"{kernel}@{config}/{rng.choice(variants)}"
                     for config in configs]
        return keys

    def features(keys):
        return [sum(table[key][field] for key in keys)
                for field in range(3)] + [max(table[key][3] for key in keys)]

    rng = random.Random(f"cold-sweep:{seed}")
    keys = balanced_draw(rng, propose, features, BALANCE)
    data_seed = rng.randrange(1, 2 ** 31)
    specs = []
    for key in _heaviest_first(keys, cost):
        kernel, rest = key.split("@")
        config, variant = rest.split("/")
        specs.append(PointSpec(kernel, config, variant, seed=data_seed))
    return specs


def tight_cm_specs(seed, seconds):
    """Per kernel, ``pairs`` designs on which it maps and ``pairs`` on
    which it does not (by the nominal table), from the shallow-CM
    frame of homogeneous and row-banded designs; full flow with the
    DSE ladder's attempt budget."""
    frame = nominal()["tight"]
    designs = {name: Design(name, tuple(depths))
               for name, depths in frame["designs"].items()}
    table = frame["points"]
    cost = {key: row[0] for key, row in table.items()}
    by_outcome = collections.defaultdict(list)
    for key, row in table.items():
        kernel, design = key.split("@")
        if not static_unmappable(designs[design], kernel):
            by_outcome[kernel, bool(row[1])].append(key)
    per_pair = sum(statistics.mean(cost[key] for key in keys)
                   for keys in by_outcome.values())
    pairs = max(1, round(seconds * WORKERS / per_pair))

    def propose(rng):
        keys = []
        for kernel in PAPER_KERNEL_ORDER:
            for mapped in (True, False):
                pool = by_outcome[kernel, mapped]
                keys += rng.sample(pool, min(pairs, len(pool)))
        return keys

    def features(keys):
        return [sum(table[key][field] for key in keys)
                for field in (0, 2, 3)] + [max(table[key][4] for key in keys)]

    rng = random.Random(f"tight-cm:{seed}")
    keys = balanced_draw(rng, propose, features, BALANCE)
    data_seed = rng.randrange(1, 2 ** 31)
    options = FlowOptions.aware(max_attempts=10)
    specs = []
    for key in _heaviest_first(keys, cost):
        kernel, design = key.split("@")
        specs.append(designs[design].spec(kernel, options=options,
                                          seed=data_seed))
    return specs


def warm_serve_requests(seed, seconds):
    """Blocks of ten request bodies in the shapes ``repro submit``
    sends, shuffled within each block: two whole sweeps (140 points),
    one figure (fig6, fig7, fig8, fig10 and table2 in turn), three
    axis subsets shaped like README.md's ``repro submit --kernels
    fir,fft --variants basic,full`` (two kernels and two variants on
    every config: 16 points) and four explicit spec lists (four
    points).  Sorted by size the classes are 40%, 30%, 10% and 20% of
    the requests, so at every seed the median falls inside the
    16-point subsets and the 90th percentile inside the whole sweeps."""
    rng = random.Random(f"warm-serve:{seed}")
    grid = sweep_specs()
    variants = tuple(VARIANTS)
    blocks = max(10, round(seconds / WARM_BLOCK_SECONDS))
    requests = []
    for index in range(blocks):
        block = [{} for _ in range(WARM_SWEEPS_PER_BLOCK)]
        block.append({"figure": FIGURES[index % len(FIGURES)]})
        block += [{"kernels": rng.sample(PAPER_KERNEL_ORDER, 2),
                   "variants": rng.sample(variants, 2)} for _ in range(3)]
        block += [{"specs": [spec_to_json(spec)
                             for spec in rng.sample(grid, 4)]}
                  for _ in range(4)]
        rng.shuffle(block)
        requests += block
    return requests


def requested_specs(body):
    """The specs a request body names, worked out independently of the
    server's request resolver."""
    if "figure" in body:
        return figure_point_specs(body["figure"])
    if "specs" in body:
        return [spec_from_json(item) for item in body["specs"]]
    return sweep_specs(kernels=body.get("kernels", PAPER_KERNEL_ORDER),
                       configs=body.get("configs", LATENCY_CONFIGS),
                       variants=body.get("variants", tuple(VARIANTS)))


# ----------------------------------------------------------------------
# Correctness
# ----------------------------------------------------------------------
class _ReferenceRun:
    """Stands in for an executed run: its output regions are the
    kernel's hand-written reference results."""

    def __init__(self, regions):
        self.regions = regions

    def region(self, cdfg, name):
        return self.regions[name]


@functools.lru_cache(maxsize=None)
def reference_digest(kernel_name, data_seed):
    """The output digest a correct execution of the kernel on the
    seeded inputs must report, hashed the way the pipeline hashes its
    own outputs, from the reference alone (no mapping, no simulation)."""
    kernel = get_kernel(kernel_name)
    inputs = kernel.make_inputs(np.random.default_rng(data_seed))
    return output_digest(kernel, _ReferenceRun(kernel.reference(inputs)))


def point_problem(spec, point):
    """Why a computed point fails the benchmark's check, or None.

    Unmappable and context-overflow outcomes are answers.  A crash,
    or a mapped point without cycles and energy or whose outputs do
    not hash to the reference's, is a failure.
    """
    if point.error not in DETERMINISTIC_ERRORS:
        return (point.error or "error").splitlines()[0]
    if not point.mapped:
        return None
    if not point.cycles or point.energy is None:
        return "mapped point without cycles or energy"
    if point.output_digest != reference_digest(spec.kernel_name, spec.seed):
        return "outputs differ from the kernel's reference"
    return None


def served_fields(point_json):
    return {field: point_json.get(field) for field in SERVED_FIELDS}


# ----------------------------------------------------------------------
# The warm-serve prefill
# ----------------------------------------------------------------------
def build_prefill(target):
    """Compute the paper grid into a fresh cache at ``target``.

    The code under test writes every entry.  ``expected.json`` keeps
    the checked fields of each point, keyed by cache key, for the
    served-versus-prefill comparison.
    """
    target = pathlib.Path(target)
    scratch = target.with_name(target.name + ".partial")
    shutil.rmtree(scratch, ignore_errors=True)
    result = run_sweep(sweep_specs(), workers=WORKERS,
                       cache=ResultCache(scratch))
    expected = {}
    for spec, point in zip(result.specs, result.points):
        problem = point_problem(spec, point)
        if problem is not None:
            raise BenchError(f"prefill {spec.describe()}: {problem}")
        expected[point_key(spec)] = served_fields(point_to_json(point))
    (scratch / "expected.json").write_text(json.dumps(expected))
    os.replace(scratch, target)


# ----------------------------------------------------------------------
# Timed runs
# ----------------------------------------------------------------------
def run_batch(specs, cache_dir, workers=None):
    """Compute ``specs`` into the empty cache at ``cache_dir``.

    Returns the wall time, the points in spec order and the epoch time
    at which each point landed in this process.
    """
    workers = WORKERS if workers is None else workers
    landings = []
    cache = ResultCache(cache_dir)
    started = time.perf_counter()
    result = run_sweep(specs, workers=workers, cache=cache,
                       progress=lambda update: landings.append(time.time()))
    wall = time.perf_counter() - started
    return {"wall": wall, "points": result.points, "landings": landings,
            "workers": workers}


def batch_outcome(specs, run):
    """Work and failures of one batch run, for the end-to-end metrics."""
    failures = []
    mapped = cycles = 0
    energy_nj = 0.0
    for spec, point in zip(specs, run["points"]):
        problem = point_problem(spec, point)
        if problem is not None:
            failures.append(f"{spec.describe()}: {problem}")
            continue
        if point.mapped:
            mapped += 1
            cycles += point.cycles
            energy_nj += point.energy_uj * 1000.0
    return {"attempted": len(specs), "failures": failures,
            "mapped": mapped, "cycles": cycles, "energy_nj": energy_nj,
            "points": len(specs), "wall": run["wall"],
            "latencies": [run["wall"]]}


class WarmServer:
    """An in-process ``repro serve`` on loopback, as the serve tests
    run it: one worker, the job journal on (the ``repro serve``
    default), the prefilled cache."""

    def __init__(self, cache_dir):
        from repro.serve.client import SweepClient
        from repro.serve.journal import JobJournal, journal_path
        from repro.serve.server import make_server

        journal = journal_path(cache_dir)
        journal.unlink(missing_ok=True)
        self.cache = ResultCache(cache_dir)
        self.server = make_server(host="127.0.0.1", port=0, workers=1,
                                  cache=self.cache, quiet=True,
                                  journal=JobJournal(journal))
        self.thread = threading.Thread(target=self.server.serve_forever,
                                       daemon=True)
        self.thread.start()
        host, port = self.server.server_address[:2]
        self.client = SweepClient(f"http://{host}:{port}", timeout=60.0)
        self.client.health()

    def close(self):
        self.server.shutdown()
        self.server.server_close()
        self.thread.join(timeout=10.0)


def run_warm(server, requests, expected, traced=False):
    """Send ``requests`` one at a time and check each payload as it
    lands.  A request is timed from submit to payload in hand; the
    checks between requests are not timed.  Only a ``traced`` pass
    re-encodes each payload as the server encodes it, to size it: the
    copy would otherwise count in the untraced pass's peak memory."""
    from repro.serve.client import ServeClientError

    outcome = {"attempted": len(requests), "failures": [], "mapped": 0,
               "cycles": 0, "energy_nj": 0.0, "points": 0,
               "payload_bytes": 0, "latencies": []}
    for body in requests:
        begun = time.perf_counter()
        try:
            payload, problem = server.client.run(body), None
        except ServeClientError as failure:
            payload, problem = None, str(failure)
        outcome["latencies"].append(time.perf_counter() - begun)
        if payload is not None:
            problem = _served_problem(body, payload, expected, outcome)
            if traced:
                outcome["payload_bytes"] += len(json.dumps(payload,
                                                           indent=2))
        if problem is not None:
            outcome["failures"].append(f"{json.dumps(body)[:60]}: {problem}")
    outcome["wall"] = sum(outcome["latencies"])
    return outcome


def _served_problem(body, payload, expected, outcome):
    """Check one payload against the prefill; count its work."""
    records = payload["points"]
    outcome["points"] += len(records)
    keys = [point_key(spec_from_json(record["spec"])) for record in records]
    if collections.Counter(keys) != collections.Counter(
            point_key(spec) for spec in requested_specs(body)):
        return "served a different set of points than requested"
    if payload["summary"]["computed"]:
        return "computed points instead of reading the cache"
    for key, record in zip(keys, records):
        served = served_fields(record["point"])
        if served != expected.get(key):
            return "served point differs from the prefill"
        if served["mapped"]:
            outcome["mapped"] += 1
            outcome["cycles"] += served["cycles"]
            outcome["energy_nj"] += served["energy_uj"] * 1000.0
    return None
