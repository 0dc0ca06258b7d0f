"""Golden test for the result-cache keys.

``keys.json`` records :func:`~repro.runtime.cache.point_key` digests
for a handful of specs covering every key field, plus one digest over
the keys of the whole 140-point paper grid.  A key that drifts orphans
every cache entry users have already computed, while every warm-path
test still passes (each rebuilds its cache with the code under test),
so only a pinned digest notices.  Regenerate the snapshot only for an
intended change to the key payload, ``CACHE_FORMAT`` or the package
version::

    PYTHONPATH=src python tests/golden/test_golden_keys.py
"""

import hashlib
import json
import os
import pathlib
import subprocess
import sys

import pytest

import repro
from repro.mapping.flow import FlowOptions
from repro.runtime.cache import point_key
from repro.runtime.sweep import PointSpec, sweep_specs

GOLDEN_PATH = pathlib.Path(__file__).parent / "keys.json"

SPECS = {
    "dc_filter@HOM64/basic": PointSpec("dc_filter", "HOM64", "basic"),
    "nonsep_filter@HET2/full": PointSpec("nonsep_filter", "HET2", "full"),
    "fir@HET1/ecmap#cycle": PointSpec("fir", "HET1", "ecmap",
                                      backend="cycle"),
    "fft@HOM32/full max_attempts=10": PointSpec(
        "fft", "HOM32", "full",
        options=FlowOptions.aware(max_attempts=10)),
    "convolution@band-2x8/full": PointSpec(
        "convolution", "band-2x8", "full", seed=7,
        cm_depths=(16,) * 8 + (48,) * 8, rows=2, cols=8),
}


def grid_digest():
    """SHA-256 over the paper grid's keys, concatenated in order."""
    digest = hashlib.sha256()
    for spec in sweep_specs():
        digest.update(point_key(spec).encode("ascii"))
    return digest.hexdigest()


def snapshot():
    return {"version": repro.__version__,
            "keys": {label: point_key(spec)
                     for label, spec in SPECS.items()},
            "grid_sha256": grid_digest()}


GOLDEN = (json.loads(GOLDEN_PATH.read_text())
          if GOLDEN_PATH.exists() else {"keys": {}})


@pytest.fixture(scope="module")
def first_calls():
    """The snapshot as a new interpreter computes it, where every
    key is computed for the first time."""
    source = pathlib.Path(repro.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(source))
    done = subprocess.run([sys.executable, __file__, "--print"],
                          env=env, capture_output=True, text=True,
                          timeout=120, check=True)
    return json.loads(done.stdout)


def test_snapshot_is_for_this_package_version():
    # Keys embed the version, so a release bump changes every key by
    # design; regenerate the snapshot with the bump.
    assert GOLDEN.get("version") == repro.__version__


def test_every_pinned_spec_is_listed():
    assert sorted(GOLDEN["keys"]) == sorted(SPECS)


def test_first_calls_match_snapshot(first_calls):
    assert first_calls == GOLDEN


@pytest.mark.parametrize("label", sorted(SPECS))
def test_repeated_calls_match_snapshot(label):
    for _ in range(2):
        assert point_key(SPECS[label]) == GOLDEN["keys"].get(label)


def test_repeated_grid_keys_match_snapshot():
    for _ in range(2):
        assert grid_digest() == GOLDEN.get("grid_sha256")


if __name__ == "__main__":  # pragma: no cover — maintenance helper
    if sys.argv[1:] == ["--print"]:
        print(json.dumps(snapshot()))
    else:
        GOLDEN_PATH.write_text(json.dumps(snapshot(), indent=1) + "\n")
        print(f"wrote {GOLDEN_PATH}")
