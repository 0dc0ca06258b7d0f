"""Shared helpers for the runtime test suite."""

import pytest


@pytest.fixture
def point_fields():
    """Every deterministic field of a point (compile time excluded).

    The one definition both equivalence suites compare against —
    serial vs parallel (``test_pool``) and stream vs batch
    (``test_stream``) — and cold vs cached points: it reads only
    fields a cached point carries too (no mapping graph, no
    activity).  When :class:`ExperimentPoint` grows a deterministic
    field, adding it here extends every equivalence check at once.
    """

    def _fields(point):
        return {
            "kernel": point.kernel_name,
            "config": point.config_name,
            "variant": point.variant,
            "mapped": point.mapped,
            "cycles": point.cycles,
            "error": point.error and point.error.splitlines()[0],
            "energy_uj": point.energy_uj,
            "energy_parts": (dict(point.energy.parts)
                             if point.energy else None),
            "movs": point.movs,
            "pnops": point.pnops,
            "tile_words": point.tile_words,
        }

    return _fields
