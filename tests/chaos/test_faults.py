"""Unit tests for the fault-plan grammar and decision function.

Everything here is pure: no processes are harmed.  The decision
function is hash-based, so the properties under test are exactness
(p=0 never, p=1 always), determinism (same plan, same key, same
answer), and independence (different keys / attempts / seeds re-roll).
"""

import pytest

from repro.chaos import (
    FaultPlan,
    active_plan,
    maybe_corrupt_cache_entry,
    parse_fault_plan,
)
from repro.chaos.faults import (
    DEFAULT_HANG_SECONDS,
    ENV_FAULT,
    FAULT_KINDS,
)
from repro.errors import ReproError


class TestParse:
    def test_full_plan_round_trips_through_describe(self):
        text = ("worker_crash:p=0.05,attempts=2;"
                "point_hang:p=0.01,seconds=12;"
                "cache_corrupt:p=0.02;http_cut:p=0.5;seed=7")
        plan = parse_fault_plan(text)
        assert plan.seed == 7
        assert set(plan.clauses) == set(FAULT_KINDS)
        assert parse_fault_plan(plan.describe()).describe() \
            == plan.describe()

    def test_empty_text_is_no_plan(self):
        assert parse_fault_plan("") is None
        assert parse_fault_plan("seed=3") is None

    def test_defaults(self):
        clause = parse_fault_plan("point_hang:p=1").clause("point_hang")
        assert clause.attempts is None
        assert clause.seconds == DEFAULT_HANG_SECONDS

    @pytest.mark.parametrize("text", [
        "disk_melt:p=1",             # unknown kind
        "worker_crash",              # no probability
        "worker_crash:p=nope",       # non-numeric p
        "worker_crash:p=1.5",        # p outside [0, 1]
        "worker_crash:p=1,when=now", # unknown parameter
        "seed=later",                # non-integer seed
    ])
    def test_bad_plans_are_repro_errors(self, text):
        with pytest.raises(ReproError):
            parse_fault_plan(text)


class TestShould:
    def test_p_one_always_and_p_zero_never(self):
        plan = parse_fault_plan("worker_crash:p=1;point_hang:p=0")
        for key in ("a", "b", "c"):
            assert plan.should("worker_crash", key)
            assert not plan.should("point_hang", key)

    def test_unarmed_kind_never_fires(self):
        plan = parse_fault_plan("worker_crash:p=1")
        assert not plan.should("cache_corrupt", "k")

    def test_decision_is_deterministic_per_key_and_attempt(self):
        plan = parse_fault_plan("worker_crash:p=0.5")
        keys = [f"spec-{i}" for i in range(64)]
        first = [plan.should("worker_crash", k) for k in keys]
        again = [plan.should("worker_crash", k) for k in keys]
        assert first == again
        # A fair-ish coin: both outcomes occur across 64 keys.
        assert any(first) and not all(first)

    def test_seed_reshuffles_decisions(self):
        a = parse_fault_plan("worker_crash:p=0.5;seed=1")
        b = parse_fault_plan("worker_crash:p=0.5;seed=2")
        keys = [f"spec-{i}" for i in range(64)]
        assert [a.should("worker_crash", k) for k in keys] \
            != [b.should("worker_crash", k) for k in keys]

    def test_attempts_gate_stops_later_attempts(self):
        plan = parse_fault_plan("worker_crash:p=1,attempts=2")
        assert plan.should("worker_crash", "k", attempt=0)
        assert plan.should("worker_crash", "k", attempt=1)
        assert not plan.should("worker_crash", "k", attempt=2)


class TestActivePlan:
    def test_unset_env_means_no_plan(self, monkeypatch):
        monkeypatch.delenv(ENV_FAULT, raising=False)
        assert active_plan() is None

    def test_env_plan_is_parsed_and_memoised(self, monkeypatch):
        monkeypatch.setenv(ENV_FAULT, "worker_crash:p=1")
        plan = active_plan()
        assert isinstance(plan, FaultPlan)
        assert active_plan() is plan
        monkeypatch.setenv(ENV_FAULT, "point_hang:p=1")
        assert active_plan().clause("point_hang") is not None


class TestCacheCorruptHook:
    def test_disarmed_hook_leaves_the_file_alone(self, monkeypatch,
                                                 tmp_path):
        monkeypatch.delenv(ENV_FAULT, raising=False)
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"payload")
        assert maybe_corrupt_cache_entry(path, "key") is False
        assert path.read_bytes() == b"payload"

    def test_armed_hook_garbles_the_file(self, monkeypatch, tmp_path):
        monkeypatch.setenv(ENV_FAULT, "cache_corrupt:p=1")
        path = tmp_path / "entry.pkl"
        path.write_bytes(b"payload")
        assert maybe_corrupt_cache_entry(path, "key") is True
        assert path.read_bytes() != b"payload"

    def test_armed_hook_leaves_a_missing_entry_missing(self, monkeypatch,
                                                       tmp_path):
        monkeypatch.setenv(ENV_FAULT, "cache_corrupt:p=1")
        path = tmp_path / "entry.json"
        assert maybe_corrupt_cache_entry(path, "key") is False
        assert not path.exists()
