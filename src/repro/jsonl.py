"""Append-only JSONL stores: ``ledger.jsonl`` and ``jobs.jsonl``.

Both stores share one contract: one self-describing JSON object per
line, tagged with a ``kind``; writers append whole lines; readers
skip and count anything that is not a well-formed line of their own
kind, so a torn append, foreign junk or a future schema degrades to
a shorter history, never a crash.  The store modules
(:mod:`repro.perf.ledger`, :mod:`repro.serve.journal`) decide what a
line holds; this module owns how it reaches and leaves the file.
"""

from __future__ import annotations

import contextlib
import json
import os
import pathlib
import shutil
import tempfile


def _line(entry):
    return json.dumps(entry, sort_keys=True, separators=(",", ":")) + "\n"


def append(entry, path):
    """Append ``entry`` as one compact sorted-key line; returns the path.

    The line goes out in a single ``os.write`` on an ``O_APPEND``
    descriptor, so concurrent appenders — threads or processes — each
    land a whole line at the end of the file rather than interleaving.
    """
    path = pathlib.Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd = os.open(path, os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o666)
    try:
        os.write(fd, _line(entry).encode())
    finally:
        os.close(fd)
    return path


def rewrite(entries, path):
    """Atomically replace the file with ``entries``, one line each.

    The lines go to a temporary file in the same directory, which
    ``os.replace`` then moves over ``path``: a reader — or a crash —
    sees the old file or the new one, never a mix.  On failure the
    temporary is removed, ``path`` is left as it was and the
    ``OSError`` propagates.  Appenders must be held off meanwhile
    (their lines would land in the replaced file).
    """
    path = pathlib.Path(path)
    fd, temporary = tempfile.mkstemp(dir=path.parent,
                                     prefix=f".{path.name}.")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as handle:
            handle.writelines(_line(entry) for entry in entries)
        shutil.copymode(path, temporary)
        os.replace(temporary, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(temporary)
        raise


def read(path, kind, valid=None):
    """``(entries, skipped)``: the file's ``kind`` objects, in order.

    Blank lines are ignored.  A line that is not JSON, not an object,
    of another ``kind``, or rejected by ``valid(entry)`` is counted in
    ``skipped``.  A missing or unreadable file reads as empty.
    """
    entries, skipped = [], 0
    try:
        # Undecodable bytes become U+FFFD and fail json.loads below:
        # junk in the file is a skipped line, not a reader crash.
        with open(path, encoding="utf-8", errors="replace") as handle:
            lines = handle.readlines()
    except OSError:
        return [], 0
    for line in lines:
        line = line.strip()
        if not line:
            continue
        try:
            entry = json.loads(line)
        except json.JSONDecodeError:
            skipped += 1
            continue
        if not isinstance(entry, dict) or entry.get("kind") != kind \
                or (valid is not None and not valid(entry)):
            skipped += 1
            continue
        entries.append(entry)
    return entries, skipped
