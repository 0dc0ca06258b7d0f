#!/usr/bin/env python3
"""The repository benchmark: one workload at one seed, end to end.

    python3 perfbench/run.py --workload cold-sweep --seed 1 --seconds 25 --trace 0

Progress goes to stderr.  The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``: every
end-to-end metric with ``--trace 0``, every per-layer metric with
``--trace 1``.  Exit status: 0 when every check passed, 1 when a
correctness check failed, 2 when the program's source is not beside
the benchmark, 3 when a step overran its time limit.

This process never imports the program.  It drops every inherited
``REPRO_*`` variable and starts, with only the benchmark's own
(``REPRO_LEDGER=0`` and a private ``REPRO_CACHE_DIR``), the children
that do the work: the warm-serve prefill builder (once per source
tree), the set-up probes and the measuring process.  See README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import fcntl
import hashlib
import json
import os
import pathlib
import select
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
STATE = ROOT / ".bench_state"
WORKLOADS = ("cold-sweep", "warm-serve", "tight-cm")

#: Fresh interpreters timed per untraced run; ``setup_s`` is their median.
SETUP_PROBES = 5

#: Warm-serve prefills kept in a checkout, one per source tree, the
#: least recently used dropped first.
PREFILLS_KEPT = 3

PREFILL_TIMEOUT = 800.0
PROBE_TIMEOUT = 30.0


class StepFailed(Exception):
    """A child step crashed or overran its time limit."""


def _parser():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: the role of a child process started by this script.
    parser.add_argument("--role", choices=("prefill", "probe", "measure"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--dir", help=argparse.SUPPRESS)
    parser.add_argument("--prefill-dir", help=argparse.SUPPRESS)
    return parser


def _log(message):
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


# ----------------------------------------------------------------------
# Children
# ----------------------------------------------------------------------
def hermetic_env(cache_dir):
    """The environment of every child: no inherited ``REPRO_*``."""
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_")}
    env["PYTHONPATH"] = str(ROOT / "src")
    env["REPRO_LEDGER"] = "0"
    env["REPRO_CACHE_DIR"] = str(cache_dir)
    return env


def _command(args, role, **paths):
    command = [sys.executable, str(HERE / "run.py"), "--role", role,
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
    for flag, path in paths.items():
        command += [f"--{flag.replace('_', '-')}", str(path)]
    return command


@contextlib.contextmanager
def _child(command, env, stdout=None):
    """Start a child in its own session and kill that session on the
    way out, so no worker it started outlives it."""
    process = subprocess.Popen(command, env=env, cwd=ROOT, stdout=stdout,
                               start_new_session=True)
    try:
        yield process
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(process.pid, signal.SIGKILL)
        process.wait()
        if process.stdout is not None:
            process.stdout.close()


def _run(command, env, timeout):
    """Run a child to completion; its stdout, or StepFailed."""
    with _child(command, env, stdout=subprocess.PIPE) as process:
        try:
            out, _ = process.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            raise StepFailed(f"{command[3]} overran {timeout:.0f}s") from None
    if process.returncode != 0:
        raise StepFailed(f"{command[3]} exited with {process.returncode}")
    return out.decode()


def tree_digest(*roots):
    """Content hash of the files under ``roots``."""
    digest = hashlib.sha256()
    for root in roots:
        for path in sorted(root.rglob("*")):
            if path.is_file() and "__pycache__" not in path.parts:
                digest.update(str(path.relative_to(ROOT)).encode())
                digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def ensure_prefill(args):
    """The warm-serve cache for this source tree, built on first use.

    Every run checks for it, whichever workload it measures: only the
    first run in a checkout may take the build's minutes, and the
    workloads can come in any order.  Prefills of other source trees
    stay (up to :data:`PREFILLS_KEPT`), so runs that alternate between
    two trees in one checkout build each tree's prefill once.
    """
    target = STATE / f"prefill-{tree_digest(ROOT / 'src')}"
    with open(STATE / "prefill.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        if not (target / "expected.json").is_file():
            _log("building the warm-serve prefill (the paper grid, "
                 "once per source tree)")
            started = time.perf_counter()
            _run(_command(args, "prefill", prefill_dir=target),
                 hermetic_env(target), PREFILL_TIMEOUT)
            _log(f"prefill built in {time.perf_counter() - started:.1f}s")
        os.utime(target)
        by_use = sorted(STATE.glob("prefill-*"), reverse=True,
                        key=lambda path: path.stat().st_mtime)
        for stale in by_use[PREFILLS_KEPT:]:
            shutil.rmtree(stale, ignore_errors=True)
    return target


def measure_timeout(args):
    """Limit of the measuring process: 2.5 times ``--seconds`` per
    pass (a traced run makes two), plus imports, reference outputs and
    checks."""
    return 30.0 + 2.5 * args.seconds * (1 + args.trace)


def time_setup(args, run_dir):
    """Seconds from starting a fresh interpreter to its first possible
    timed call: imports, kernel construction, server boot."""
    probe_dir = run_dir / "probe"
    started = time.perf_counter()
    with _child(_command(args, "probe", dir=probe_dir),
                hermetic_env(probe_dir), stdout=subprocess.PIPE) as process:
        ready, _, _ = select.select([process.stdout], [], [], PROBE_TIMEOUT)
        line = process.stdout.readline() if ready else b""
        elapsed = time.perf_counter() - started
        if line.strip() != b"ready":
            raise StepFailed("set-up probe did not come up")
        try:
            process.wait(timeout=PROBE_TIMEOUT)
        except subprocess.TimeoutExpired:
            raise StepFailed("set-up probe did not exit") from None
    return elapsed


def check_exact(args, exact, failures):
    """Work counts must repeat exactly at one seed: compare with the
    first correct run of this program and benchmark, workload and
    seed."""
    path = (STATE / "exact" / tree_digest(ROOT / "src", HERE) /
            f"{args.workload}-seed{args.seed}-{args.seconds}s-"
            f"trace{args.trace}.json")
    if path.is_file():
        earlier = json.loads(path.read_text())
        differing = sorted(name for name in exact
                           if earlier.get(name) != exact[name])
        if differing:
            failures.append("work counts differ from an earlier run at "
                            "this seed: " + ", ".join(differing))
    elif not failures:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(exact, sort_keys=True))


def _terminate(signum, frame):
    """On SIGTERM, unwind: the children's sessions are killed on the
    way out."""
    raise SystemExit(128 + signum)


def main(argv=None):
    args = _parser().parse_args(argv)
    if args.role is not None:
        return child_main(args)
    if args.seconds < 1:
        _log("--seconds must be at least 1")
        return 2
    from metrics import BENCHMARK_FILE

    if not ((ROOT / "src" / "repro" / "__init__.py").is_file()
            and BENCHMARK_FILE.is_file()):
        _log(f"no program source under {ROOT / 'src'}; nothing to measure")
        return 2
    signal.signal(signal.SIGTERM, _terminate)
    STATE.mkdir(exist_ok=True)
    run_dir = STATE / f"run-{os.getpid()}"
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir()
    try:
        prefill_dir = ensure_prefill(args)
        setups = ([] if args.trace else
                  [time_setup(args, run_dir) for _ in range(SETUP_PROBES)])
        cache_dir = (prefill_dir if args.workload == "warm-serve"
                     else run_dir / "cache")
        out = _run(_command(args, "measure", dir=run_dir,
                            prefill_dir=prefill_dir),
                   hermetic_env(cache_dir), measure_timeout(args))
    except StepFailed as failure:
        _log(str(failure))
        return 3
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    return report(args, json.loads(out.strip().splitlines()[-1]), setups)


def report(args, measured, setups):
    """Print the result line for one measured run; the exit status."""
    from metrics import BENCHMARK_FILE

    values, failures = measured["metrics"], measured["failures"]
    if setups:
        values["setup_s"] = statistics.median(setups)
    check_exact(args, measured["exact"], failures)
    for failure in failures:
        _log(f"FAILED {failure}")

    spec = json.loads(BENCHMARK_FILE.read_text())
    if args.trace:
        print(f"traced run of {args.workload} (seed {args.seed}): per-layer "
              f"metrics only; tracing overhead "
              f"{values['trace.overhead_share']:+.1%}.  End-to-end metrics "
              f"come only from --trace 0 runs.")
    print(json.dumps({
        "correct": not failures,
        "attempted": measured["attempted"],
        "failed": len(failures),
        "metrics": {entry["name"]: {"value": values[entry["name"]],
                                    "unit": entry["unit"]}
                    for entry in spec["per_layer" if args.trace
                                      else "end_to_end"]},
    }))
    return 0 if not failures else 1


# ----------------------------------------------------------------------
# The child roles (the only code here that imports the program)
# ----------------------------------------------------------------------
def child_main(args):
    import workloads

    if args.role == "prefill":
        workloads.build_prefill(args.prefill_dir)
        return 0
    if args.role == "probe":
        from repro.kernels import PAPER_KERNEL_ORDER, get_kernel

        for name in PAPER_KERNEL_ORDER:
            get_kernel(name)
        server = (workloads.WarmServer(args.dir)
                  if args.workload == "warm-serve" else None)
        print("ready", flush=True)
        if server is not None:
            server.close()
        return 0
    import measure

    result = (measure.warm(args) if args.workload == "warm-serve"
              else measure.batch(args))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
