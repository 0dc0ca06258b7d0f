"""Golden placement digests: every op, MOV and slot of every block.

``mappings.json`` pins summaries (lengths, per-tile usage, MOV and
PNOP totals) on HOM32.  Two mappings can agree on every summary and
still differ in where an op sits, so this file pins a SHA-256 over
each block's full mapping — name, length, attempt count, sorted
placements, MOV list, per-tile slot descriptors and new symbol homes —
for:

- every kernel x flow variant on HOM32 and on HET2;
- shallow-context-memory designs under the aware flow with a small
  attempt budget, two that map and two that raise
  :class:`~repro.errors.UnmappableError` (its message is pinned: the
  failing block and the reason its last attempt died).

A mapper optimisation must leave every digest unchanged.  Regenerate
only for an *intended* mapping change, and only from a commit whose
mappings are the reference::

    PYTHONPATH=src python tests/golden/test_golden_digests.py
"""

import hashlib
import json
import pathlib

import pytest

from repro.arch.configs import get_config
from repro.dse.space import Design
from repro.errors import UnmappableError
from repro.kernels import PAPER_KERNEL_ORDER, get_kernel
from repro.mapping.flow import VARIANTS, FlowOptions, map_kernel

GOLDEN_PATH = pathlib.Path(__file__).parent / "digests.json"

#: Kernels whose maps dominate suite time: slow lane.
_HEAVY = {"matmul", "nonsep_filter", "fft"}

#: Shallow-CM designs (row-banded depths, as in the tight-cm
#: benchmark frame) and the kernel mapped on each.
TIGHT = {
    "fir@row8-8-16-16": (8,) * 8 + (16,) * 8,
    "dc_filter@row8-24-8-16": (8,) * 4 + (24,) * 4 + (8,) * 4 + (16,) * 4,
    "fir@hom8": (8,) * 16,
    "convolution@row8-24-8-32": (8,) * 4 + (24,) * 4 + (8,) * 4 + (32,) * 4,
}


def block_digest(block):
    """SHA-256 over one block's complete mapping."""
    pm = block.pm
    document = [
        block.name, block.length, block.attempts,
        sorted([uid, tile, cycle]
               for uid, (tile, cycle) in pm.placements.items()),
        [list(mov) for mov in block.movs],
        [sorted([cycle, *descriptor]
                for cycle, descriptor in pm.tile_cycles[tile].items())
         for tile in range(pm.cgra.n_tiles)],
        sorted(pm.new_homes.items()),
    ]
    return hashlib.sha256(json.dumps(document).encode()).hexdigest()


def outcome(kernel_name, cgra, options):
    """Per-block digests in traversal order, or the unmappable text."""
    try:
        result = map_kernel(get_kernel(kernel_name).cdfg, cgra, options)
    except UnmappableError as error:
        return {"unmappable": str(error)}
    return {"blocks": [[name, block_digest(result.blocks[name])]
                       for name in result.block_order]}


def cases():
    """Label -> (kernel, CGRA factory, options factory)."""
    table = {}
    for config in ("HOM32", "HET2"):
        for kernel in PAPER_KERNEL_ORDER:
            for variant in sorted(VARIANTS):
                table[f"{kernel}@{config}/{variant}"] = (
                    kernel, lambda config=config: get_config(config),
                    VARIANTS[variant])
    for label, depths in TIGHT.items():
        kernel, design = label.split("@")
        table[f"{label}/full max_attempts=10"] = (
            kernel, Design(design, depths).build_cgra,
            lambda: FlowOptions.aware(max_attempts=10))
    return table


GOLDEN = (json.loads(GOLDEN_PATH.read_text())
          if GOLDEN_PATH.exists() else {})


def _params():
    return [pytest.param(label, id=label,
                         marks=[pytest.mark.slow] if kernel in _HEAVY
                         else [])
            for label, (kernel, _, _) in cases().items()]


def test_golden_covers_every_case():
    assert set(GOLDEN) == set(cases())
    tight = [GOLDEN[label] for label in GOLDEN if "max_attempts" in label]
    assert sum("unmappable" in entry for entry in tight) == 2
    assert sum("blocks" in entry for entry in tight) == 2


@pytest.mark.parametrize("label", _params())
def test_mapping_digest_matches_golden(label):
    kernel, cgra, options = cases()[label]
    assert outcome(kernel, cgra(), options()) == GOLDEN[label], (
        f"{label}: a placement, MOV, slot, home, block length or "
        f"attempt count drifted from the golden digest")


def regenerate():  # pragma: no cover — maintenance helper
    """Rewrite digests.json from the current mapper."""
    golden = {}
    for label, (kernel, cgra, options) in cases().items():
        golden[label] = outcome(kernel, cgra(), options())
        print(label, "ok", flush=True)
    GOLDEN_PATH.write_text(json.dumps(golden, indent=1) + "\n")


if __name__ == "__main__":  # pragma: no cover
    regenerate()
