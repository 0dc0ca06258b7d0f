"""Zero-dependency sampling profiler with collapsed-stack output.

Spans tell us *that* ``map_kernel`` took 40 ms; they cannot say which
function inside it burned the cycles.  A tracing profiler would
answer that, but its per-call overhead distorts exactly the tight
loops we care about.  This is the repo's one profiler: a
**sampling** profiler built only on the standard library — a daemon
thread wakes ``hz`` times per second, snapshots
``sys._current_frames()``, and counts call stacks.

Sampling is not free: every wakeup walks and formats the sampled
stacks while holding the interpreter lock, and the profiled thread
waits.  On a 2-core Intel Xeon host (Python 3.11.7), 20 interleaved
sampled/unsampled mappings per case at 97 Hz ran a median 2% (fft)
to 8% (convolution) slower on HOM32/full — dc_filter 4%, fir 4%,
sep_filter 6% — with upper quartiles up to 24% (dc_filter); whole
``bench --flame-out`` runs on a similar host measured 9-27% per
case.  That is why a sampled run never reaches the run ledger or a
regression gate (see ``repro.cli``).

Output is the collapsed-stack format (``outer;inner;leaf count`` per
line) that flamegraph.pl / speedscope / inferno all consume, written
by ``--flame-out`` on ``repro sweep`` / ``bench``, which also print
:func:`render_flame`'s table of the hottest functions to stderr.  To
profile one case, map it repeatedly under one sample:
``repro bench --cases K@C/V --warmup 0 --repeat N --flame-out FILE``.
"""

from __future__ import annotations

import sys
import threading
from collections import Counter

from repro.errors import ReproError

#: Sampling rate of every ``--flame-out`` run.  Prime-ish, so a
#: periodic workload can't hide between samples.
DEFAULT_HZ = 97.0

#: Leaf functions :func:`render_flame` lists, hottest first.
TOP_FUNCTIONS = 25


def _frame_stack(frame):
    """Stack as ``module.func`` names, outermost first."""
    parts = []
    while frame is not None:
        code = frame.f_code
        module = frame.f_globals.get("__name__", "?")
        parts.append(f"{module}.{code.co_name}")
        frame = frame.f_back
    parts.reverse()
    return parts


class SamplingProfiler:
    """Wall-clock stack sampler over ``sys._current_frames()``.

    ``thread_ids`` pins sampling to specific threads (e.g. the one
    driving a command); ``None`` samples every thread except the
    sampler itself.
    """

    def __init__(self, hz=DEFAULT_HZ, thread_ids=None):
        if hz <= 0:
            raise ReproError(f"sampling rate must be > 0, got {hz}")
        self.hz = float(hz)
        self.thread_ids = (set(thread_ids)
                           if thread_ids is not None else None)
        self.counts = Counter()
        self._stop = threading.Event()
        self._thread = None

    def _run(self):
        interval = 1.0 / self.hz
        own = threading.get_ident()
        while not self._stop.wait(interval):
            frames = sys._current_frames()
            for ident, frame in frames.items():
                if ident == own:
                    continue
                if (self.thread_ids is not None
                        and ident not in self.thread_ids):
                    continue
                stack = _frame_stack(frame)
                if stack:
                    self.counts[";".join(stack)] += 1

    def start(self):
        if self._thread is not None:
            raise ReproError("profiler already started")
        self._stop.clear()
        self._thread = threading.Thread(
            target=self._run, name="repro-sampler", daemon=True)
        self._thread.start()
        return self

    def stop(self):
        """Stop sampling; returns the collapsed-stack Counter."""
        if self._thread is None:
            return self.counts
        self._stop.set()
        self._thread.join(timeout=5.0)
        self._thread = None
        return self.counts

    def __enter__(self):
        return self.start()

    def __exit__(self, *exc):
        self.stop()
        return False


def collapsed_lines(counts):
    """Collapsed-stack lines (sorted for deterministic output)."""
    return [f"{stack} {count}"
            for stack, count in sorted(counts.items())]


def write_collapsed(path, counts):
    """Write counts in collapsed-stack format; returns the path."""
    with open(path, "w") as handle:
        for line in collapsed_lines(counts):
            handle.write(line + "\n")
    return path


def render_flame(counts):
    """Terminal summary: hottest leaf functions, then hottest stacks."""
    total = sum(counts.values())
    if not total:
        return ("no samples collected (workload too fast for the "
                "sampling rate — sample a longer run, e.g. a higher "
                "bench --repeat)")
    leaves = Counter()
    on_stack = Counter()
    for stack, count in counts.items():
        frames = stack.split(";")
        leaves[frames[-1]] += count
        for frame in set(frames):
            on_stack[frame] += count
    lines = [f"{total} sample(s), {len(counts)} distinct stack(s)",
             "",
             f"{'self%':>7s} {'total%':>7s} {'samples':>8s}  function"]
    for name, count in leaves.most_common(TOP_FUNCTIONS):
        lines.append(f"{count / total:7.1%} "
                     f"{on_stack[name] / total:7.1%} "
                     f"{count:8d}  {name}")
    lines += ["", "hottest stacks:"]
    for stack, count in counts.most_common(min(5, len(counts))):
        frames = stack.split(";")
        tail = ";".join(frames[-4:])
        prefix = "...;" if len(frames) > 4 else ""
        lines.append(f"  {count:6d}  {prefix}{tail}")
    return "\n".join(lines)
