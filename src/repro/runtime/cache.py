"""Persistent on-disk cache for computed experiment points.

Mapping is by far the dominant cost of reproducing the paper's
figures, and it is fully deterministic: the flow derives every random
stream from the options' seed.  So a computed
:class:`~repro.runtime.sweep.ExperimentPoint` is worth keeping across
processes and sessions.

Keys are a SHA-256 content hash of *everything that determines the
result*: kernel name, configuration name, flow variant, the complete
:class:`~repro.mapping.flow.FlowOptions`, the input seed, any custom
context-memory depths, the package version and the cache format
version.  Change any of them — a different pruning seed, a new
release that alters the energy model — and the key changes, so stale
payloads are never returned; they are merely orphaned until the next
``clear()``.

Each entry is one point's JSON document
(:func:`~repro.runtime.sweep.point_to_json` — the same document shard
files and serve payloads carry), so loading a shared cache directory
never executes code.  A cached point is therefore a *summary*: it
carries cycles, energy, outcome, output digest and the mapping's
MOV/PNOP/context-word counts, but not the mapping graph or the
activity counters.

Writes are atomic: documents are written to a temporary file in the
cache directory and ``os.replace``-d into place, so a reader never
observes a partially written entry and an interrupted run leaves at
worst an ignored ``*.tmp*`` file behind.  Unreadable, truncated or
wrong-shape entries are treated as misses and deleted.

The cache directory defaults to ``~/.cache/repro`` and is overridden
with the ``REPRO_CACHE_DIR`` environment variable.

The cache is managed: an entry's mtime is refreshed when a process
reads the entry from disk, so recency order is file recency, and an
optional byte cap — ``max_bytes=`` or the ``REPRO_CACHE_MAX_BYTES``
environment variable (plain bytes or ``512K`` / ``64M`` / ``2G``) —
evicts least-recently-used entries after each store.  ``stats()``
reports size and session counters; ``prune()`` applies a cap on
demand; ``repro cache stats|prune|clear`` exposes all of it on the
command line.
"""

from __future__ import annotations

import collections
import dataclasses
import functools
import hashlib
import json
import os
import pathlib
import re
import tempfile
import threading

import repro
from repro.chaos import maybe_corrupt_cache_entry
from repro.obs import get_logger, metrics as _metrics
from repro.runtime.sweep import point_from_json, point_to_json

_log = get_logger("repro.runtime.cache")

#: Environment variable overriding the cache directory.
ENV_CACHE_DIR = "REPRO_CACHE_DIR"

#: Environment variable capping the cache size in bytes (suffixes
#: ``K``/``M``/``G`` = KiB/MiB/GiB accepted).
ENV_CACHE_MAX_BYTES = "REPRO_CACHE_MAX_BYTES"

#: Bump when the on-disk payload layout changes incompatibly.
#: Format 2: ExperimentPoint grew an explicit ``mapped`` override.
#: Format 3: PointSpec grew ``rows``/``cols`` (array-shape scaling
#: for design-space exploration) — the fields join the key payload.
#: Format 4: PointSpec grew ``backend`` (pluggable execution
#: backends) and ExperimentPoint an ``output_digest``; entry
#: filenames now carry an ``f4-`` format prefix, so entries written
#: by other formats are recognisably *orphaned* — never read, never
#: crashed on, reported by ``stats()`` and reclaimed by ``clear()``
#: or LRU eviction.
#: Format 5: entries are point JSON documents (``f5-<key>.json``)
#: instead of pickles; ``*.pkl`` entries of earlier formats are
#: orphaned and never read.
CACHE_FORMAT = 5

_SUFFIX = ".json"

#: Filename prefix of entries written by *this* format.  Pre-format-4
#: entries were bare ``<hash>.pkl``; any entry without the current
#: prefix is orphaned by definition.
_FORMAT_PREFIX = f"f{CACHE_FORMAT}-"

#: Names of complete entries of any format: pickles of formats 1-4
#: (bare or ``f4-`` prefixed) and JSON documents from format 5 on.
#: Anything else in the directory (temp files, the JSONL ledger and
#: job journal, unrelated files) is not an entry.
_ENTRY_NAME = re.compile(r"(?:f\d+-)?[0-9a-f]{64}\.(?:pkl|json)")

_BYTE_SUFFIXES = {"K": 1024, "M": 1024 ** 2, "G": 1024 ** 3}

#: Points one :class:`ResultCache` keeps in memory after reading
#: them, and keys :func:`point_key` remembers (the paper grid is 140).
MEMORY_POINTS = 4096


def default_cache_dir():
    """``$REPRO_CACHE_DIR`` if set, else ``~/.cache/repro``."""
    override = os.environ.get(ENV_CACHE_DIR)
    if override:
        return pathlib.Path(override)
    return pathlib.Path.home() / ".cache" / "repro"


def parse_bytes(text):
    """``"4096"`` -> 4096, ``"512K"``/``"64M"``/``"2G"`` -> bytes."""
    given = str(text).strip()
    digits = given.upper()
    multiplier = 1
    if digits and digits[-1] in _BYTE_SUFFIXES:
        multiplier = _BYTE_SUFFIXES[digits[-1]]
        digits = digits[:-1]
    try:
        value = int(digits) * multiplier
    except ValueError:
        raise ValueError(
            f"not a byte size: {given!r} (expected e.g. 4096, 512K, "
            f"64M, 2G)") from None
    if value < 0:
        raise ValueError(f"byte size must be >= 0, got {value}")
    return value


def default_max_bytes():
    """``$REPRO_CACHE_MAX_BYTES`` as an int, or None (unlimited).

    ``0`` follows the common env-var convention and means *no cap* —
    a standing cap of zero would evict every entry the moment it is
    written, silently turning the cache into pure wasted I/O.  (An
    explicit ``prune(0)`` still means "evict everything", which is a
    deliberate one-shot action.)
    """
    override = os.environ.get(ENV_CACHE_MAX_BYTES)
    if not override:
        return None
    return parse_bytes(override) or None


def spec_payload(spec):
    """Canonical JSON-safe dict of a spec's result-determining fields.

    The single definition shared by the cache key and the shard JSON
    serialisation (:mod:`repro.runtime.shard`): a field added here
    perturbs cache keys, sweep fingerprints and shard payloads in
    lockstep, so the three can never silently disagree about what
    identifies a computation.
    """
    spec = spec.resolve()
    return {
        "kernel": spec.kernel_name,
        "config": spec.config_name,
        "variant": spec.variant,
        # Every FlowOptions field is a scalar, so this is asdict
        # without its deep copy.
        "options": {field.name: getattr(spec.options, field.name)
                    for field in dataclasses.fields(spec.options)},
        "seed": spec.seed,
        "cm_depths": (list(spec.cm_depths)
                      if spec.cm_depths is not None else None),
        "rows": spec.rows,
        "cols": spec.cols,
        "backend": spec.backend,
    }


def point_key(spec, version=None):
    """Content hash identifying one experiment point's result.

    Two specs that describe the same computation hash identically
    (``options=None`` is resolved to the variant's preset first);
    any field that could change the outcome perturbs the digest.
    Keys are remembered per resolved spec and version, so a sweep's
    fingerprint and its cache lookups share one computation.
    """
    return _resolved_key(spec.resolve(), version if version is not None
                         else repro.__version__)


@functools.lru_cache(maxsize=MEMORY_POINTS)
def _resolved_key(spec, version):
    payload = spec_payload(spec)
    payload["format"] = CACHE_FORMAT
    payload["version"] = version
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


class ResultCache:
    """Directory of experiment-point JSON documents, one file per key.

    Tracks ``hits`` / ``misses`` / ``stores`` / ``evictions`` for the
    session so callers can assert "a warm run re-mapped zero points".

    ``max_bytes`` (default: ``$REPRO_CACHE_MAX_BYTES``, else
    unlimited) caps the directory's total entry size; after every
    store, least-recently-used entries (by mtime — refreshed when a
    process reads the entry from disk) are evicted until the cap
    holds again.
    """

    def __init__(self, directory=None, max_bytes=None):
        self.directory = (pathlib.Path(directory) if directory is not None
                          else default_cache_dir())
        self.max_bytes = (max_bytes if max_bytes is not None
                          else default_max_bytes())
        self.hits = 0
        self.misses = 0
        self.stores = 0
        self.evictions = 0
        # Points this instance has read from its own entries, least
        # recently used first; shared by the serve tier's runner
        # threads, hence the lock.
        self._memory = collections.OrderedDict()
        self._memory_lock = threading.Lock()
        # Running size estimate under a cap: seeded by one full scan,
        # bumped per store, re-synced against the directory whenever
        # it crosses the cap.  Overwrites double-count (conservative:
        # at worst an early re-sync), other processes' writes are
        # caught by the authoritative rescan inside _evict_to.
        self._tracked_bytes = None

    # ------------------------------------------------------------------
    # Key-level interface
    # ------------------------------------------------------------------
    def path_for(self, key):
        return self.directory / f"{_FORMAT_PREFIX}{key}{_SUFFIX}"

    def get(self, key):
        """The cached :class:`~repro.runtime.sweep.ExperimentPoint`
        for ``key``, or None on a miss.

        A corrupt, truncated or wrong-shape entry (e.g. the machine
        died mid-write of a non-atomic filesystem, or a foreign file
        under the entry's name) counts as a miss and is removed.

        A point read from disk is kept in memory (up to
        :data:`MEMORY_POINTS`, least recently used dropped first), and
        later reads of its key return that same object without
        touching a file.  Keys are content-addressed (spec, package
        version, cache format), so the remembered point is the one
        the file held even if another process deletes the file
        later.  A memory hit does not refresh the entry's mtime: the
        on-disk LRU order records each process's first read, not
        every hit.
        """
        with self._memory_lock:
            point = self._memory.get(key)
            if point is not None:
                self._memory.move_to_end(key)
                self.hits += 1
        if point is not None:
            _metrics.CACHE_HITS.inc()
            return point
        path = self.path_for(key)
        # Chaos hook: an armed cache_corrupt fault garbles the entry on
        # disk right here, so the discard path below is exercised by
        # exactly the failure it guards against.
        maybe_corrupt_cache_entry(path, key)
        try:
            with open(path, "rb") as handle:
                point = point_from_json(json.loads(handle.read()))
        except FileNotFoundError:
            self.misses += 1
            _metrics.CACHE_MISSES.inc()
            return None
        except (OSError, ValueError, RecursionError, KeyError,
                TypeError, AttributeError) as error:
            # Unreadable, undecodable, nested past the recursion limit
            # or of the wrong shape (a list, a dict without "kernel"):
            # a miss, and the entry is dropped so it cannot fail the
            # next run either.  Loud, though: disk-level corruption is
            # an operator problem, not a cache miss, so it gets its own
            # counter and a structured warning.
            self._discard(path)
            self.misses += 1
            _metrics.CACHE_MISSES.inc()
            _metrics.CACHE_CORRUPT.inc()
            _log.warning("cache.corrupt_entry", key=key,
                         path=str(path),
                         error=f"{type(error).__name__}: {error}")
            return None
        with self._memory_lock:
            self._memory[key] = point
            while len(self._memory) > MEMORY_POINTS:
                self._memory.popitem(last=False)
            self.hits += 1
        _metrics.CACHE_HITS.inc()
        self._touch(path)
        return point

    def _forget(self, key):
        with self._memory_lock:
            self._memory.pop(key, None)

    def put(self, key, payload):
        """Atomically persist the point ``payload`` under ``key``;
        returns the entry's path."""
        document = json.dumps(point_to_json(payload),
                              separators=(",", ":"))
        self.directory.mkdir(parents=True, exist_ok=True)
        final = self.path_for(key)
        descriptor, temp_name = tempfile.mkstemp(
            dir=self.directory, prefix=f"{key}{_SUFFIX}.tmp")
        try:
            with os.fdopen(descriptor, "w", encoding="utf-8") as handle:
                handle.write(document)
            os.replace(temp_name, final)
        except BaseException:
            self._discard(pathlib.Path(temp_name))
            raise
        self._forget(key)
        self.stores += 1
        _metrics.CACHE_STORES.inc()
        if self.max_bytes is not None:
            self._account_store(final)
        return final

    def invalidate(self, key):
        """Drop one entry; True if it existed."""
        self._forget(key)
        path = self.path_for(key)
        existed = path.exists()
        self._discard(path)
        return existed

    # ------------------------------------------------------------------
    # Spec-level convenience
    # ------------------------------------------------------------------
    def get_point(self, spec):
        return self.get(point_key(spec))

    def has_point(self, spec):
        """Whether a completed entry exists for ``spec``.

        A bare existence check (one ``stat``, no read, no hit/miss
        accounting) — cheap enough to probe thousands of
        specs, which is what cache-aware shard balancing does.
        """
        return self.path_for(point_key(spec)).exists()

    def store_point(self, spec, point):
        return self.put(point_key(spec), point)

    def invalidate_point(self, spec):
        return self.invalidate(point_key(spec))

    # ------------------------------------------------------------------
    # Maintenance
    # ------------------------------------------------------------------
    def entries(self):
        """Paths of all complete cache entries (ignores temp files).

        Includes *orphaned* entries — files written under an earlier
        :data:`CACHE_FORMAT` (recognisable by their filename prefix,
        and the ``.pkl`` suffix before format 5).  They are never
        read back (``path_for`` only names current-format files) but
        they still occupy bytes, so size accounting, LRU eviction and
        ``clear()`` all see them.
        """
        if not self.directory.is_dir():
            return []
        return sorted(path for path in self.directory.iterdir()
                      if _ENTRY_NAME.fullmatch(path.name))

    @staticmethod
    def is_orphaned(path):
        """Whether an entry was written under a different format."""
        return not path.name.startswith(_FORMAT_PREFIX)

    def size_bytes(self):
        """Total size of all complete entries, in bytes."""
        return sum(size for _, _, size in self._inventory())

    def stats(self):
        """Size accounting plus session counters, as a plain dict.

        ``entries``/``total_bytes`` cover the whole directory;
        ``orphaned_entries``/``orphaned_bytes`` single out entries
        from other cache formats — dead weight a format bump left
        behind, reclaimable with ``prune``/``clear``.
        """
        inventory = self._inventory()
        orphaned = [(path, size) for _, path, size in inventory
                    if self.is_orphaned(path)]
        _metrics.CACHE_ENTRIES.set(len(inventory))
        _metrics.CACHE_BYTES.set(
            sum(size for _, _, size in inventory))
        _metrics.CACHE_ORPHANED_BYTES.set(
            sum(size for _, size in orphaned))
        return {
            "directory": str(self.directory),
            "format": CACHE_FORMAT,
            "entries": len(inventory),
            "total_bytes": sum(size for _, _, size in inventory),
            "orphaned_entries": len(orphaned),
            "orphaned_bytes": sum(size for _, size in orphaned),
            "max_bytes": self.max_bytes,
            "hits": self.hits,
            "misses": self.misses,
            "stores": self.stores,
            "evictions": self.evictions,
        }

    def prune(self, max_bytes=None):
        """Evict LRU entries until the cap holds; returns the count.

        ``max_bytes=None`` uses the cache's configured cap; pruning a
        cache with no cap at all is an error (it would be a no-op the
        caller almost certainly did not intend).
        """
        cap = max_bytes if max_bytes is not None else self.max_bytes
        if cap is None:
            raise ValueError(
                "no byte cap to prune to: pass max_bytes or set "
                f"${ENV_CACHE_MAX_BYTES}")
        return self._evict_to(cap)

    def _inventory(self):
        """``(mtime, path, size)`` of every entry, oldest first.

        Entries that vanish mid-scan (a concurrent clear or another
        process's eviction) are simply skipped.
        """
        rows = []
        for path in self.entries():
            try:
                stat = path.stat()
            except OSError:
                continue
            rows.append((stat.st_mtime, path, stat.st_size))
        rows.sort(key=lambda row: (row[0], row[1].name))
        return rows

    def _account_store(self, path):
        """Track one store against the cap without a full rescan."""
        if self._tracked_bytes is None:
            self._tracked_bytes = self.size_bytes()  # includes `path`
        else:
            try:
                self._tracked_bytes += path.stat().st_size
            except OSError:
                pass
        if self._tracked_bytes > self.max_bytes:
            self._evict_to(self.max_bytes)

    def _evict_to(self, cap):
        """Drop least-recently-used entries until ``total <= cap``."""
        inventory = self._inventory()
        total = sum(size for _, _, size in inventory)
        evicted = 0
        for _, path, size in inventory:
            if total <= cap:
                break
            self._discard(path)
            self._forget(path.name.removeprefix(_FORMAT_PREFIX)
                         .removesuffix(_SUFFIX))
            total -= size
            evicted += 1
        self.evictions += evicted
        if evicted:
            _metrics.CACHE_EVICTIONS.inc(evicted)
        self._tracked_bytes = total  # authoritative re-sync
        return evicted

    @staticmethod
    def _touch(path):
        """Refresh mtime on a hit so recency order is literal."""
        try:
            os.utime(path)
        except OSError:
            pass

    def clear(self):
        """Wipe every entry (and stray temp files); returns the count."""
        removed = 0
        self._tracked_bytes = None
        with self._memory_lock:
            self._memory.clear()
        if not self.directory.is_dir():
            return removed
        for path in self.directory.iterdir():
            if _ENTRY_NAME.fullmatch(path.name) or ".tmp" in path.name:
                self._discard(path)
                removed += 1
        return removed

    @staticmethod
    def _discard(path):
        try:
            os.unlink(path)
        except OSError:
            pass

    def __repr__(self):
        return (f"ResultCache({str(self.directory)!r}, hits={self.hits}, "
                f"misses={self.misses}, stores={self.stores}, "
                f"evictions={self.evictions})")
