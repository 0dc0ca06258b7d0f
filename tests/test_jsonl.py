"""The shared JSONL store contract, through both stores that use it."""

import json
import sys
import threading

import pytest

from repro import jsonl
from repro.perf.ledger import append_entry, make_entry, read_ledger
from repro.serve.journal import JobJournal


def write_ledger(path, n):
    entry = make_entry("bench", {"cases": {}, "n": n})
    append_entry(entry, path)
    return entry


def read_ledger_count(path):
    entries, skipped = read_ledger(path)
    return len(entries), skipped


def write_journal(path, n):
    return JobJournal(path).record("submitted", f"job-{n}",
                                   job_kind="sweep", body={"n": n})


def read_journal_count(path):
    jobs, skipped = JobJournal(path).replay()
    return len(jobs), skipped


STORES = {
    # name: (writer, reader, a line of the store's kind that fails
    # the store's own validity check)
    "ledger": (write_ledger, read_ledger_count,
               {"kind": "ledger-entry", "summary": "not a dict"}),
    "journal": (write_journal, read_journal_count,
                {"kind": "job-event", "event": "vanished",
                 "job_id": "job-9"}),
}


@pytest.mark.parametrize("store", sorted(STORES))
def test_reader_skips_and_counts_every_kind_of_junk(tmp_path, store):
    write, read, invalid = STORES[store]
    path = tmp_path / "store.jsonl"
    first = write(path, 0)
    # The on-disk line: compact, key-sorted JSON and a newline.
    assert path.read_bytes() == (json.dumps(
        first, sort_keys=True, separators=(",", ":")) + "\n").encode()
    with open(path, "ab") as handle:
        handle.write(b"\n   \n")                     # blank: ignored
        handle.write(b'{"kind": "ledger-entry", "sche\n')   # torn
        handle.write(b'[1, 2]\n42\n"text"\n')        # not objects
        handle.write(b'{"kind": "foreign"}\n')      # another store's
        handle.write(json.dumps(invalid).encode() + b"\n")
        handle.write(b"\xff\xfe not utf-8\n")       # undecodable
    write(path, 1)
    assert read(path) == (2, 7)


def test_concurrent_appends_land_whole_lines(tmp_path):
    # No lock on purpose: the single O_APPEND write is what keeps
    # lines whole when threads (or processes) append at once.
    path = tmp_path / "store.jsonl"
    payload = "x" * 2000
    threads, per_thread = 8, 50

    def appender(index):
        for n in range(per_thread):
            jsonl.append({"kind": "t", "who": index, "n": n,
                          "pad": payload}, path)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=appender, args=(i,))
                   for i in range(threads)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=30.0)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    entries, skipped = jsonl.read(path, "t")
    assert skipped == 0
    assert len(entries) == threads * per_thread
    assert {(e["who"], e["n"]) for e in entries} == {
        (i, n) for i in range(threads) for n in range(per_thread)}
