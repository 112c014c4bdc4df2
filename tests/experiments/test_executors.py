"""The sweep executor layer: selection, determinism, and the LRU cache.

The headline contract: ``run_sweep`` produces byte-identical results —
sorted-key JSON of the reports, merged metrics, and merged events — no
matter which executor ran it (serial, thread pool, process pool) or
which multiprocessing start method launched the workers.
"""

import dataclasses
import json
import os

import pytest

from repro.android.hardware.profiles import (NEXUS_4, NEXUS_7_2012,
                                             NEXUS_7_2013)
from repro.apps import app_by_title
from repro.experiments import harness
from repro.experiments.harness import (
    SWEEP_EXECUTOR_ENV,
    SweepResult,
    _resolve_executor,
    _resolve_workers,
    clear_sweep_cache,
    run_sweep,
)

#: A small sweep (2 pairs x 2 apps) keeps the executor matrix fast.
PAIRS = [(NEXUS_4, NEXUS_7_2013), (NEXUS_7_2012, NEXUS_4)]
APPS = [app_by_title("ZEDGE"), app_by_title("eBay")]


def _fingerprint(sweep: SweepResult) -> bytes:
    """Sorted-key JSON bytes of everything a sweep produces."""
    doc = {
        "labels": sweep.pair_labels,
        "reports": {f"{pair}/{pkg}": dataclasses.asdict(report)
                    for (pair, pkg), report in sorted(sweep.reports.items())},
        "refusals": {f"{pair}/{pkg}": refusal.value
                     for (pair, pkg), refusal
                     in sorted(sweep.refusals.items())},
        "metrics": sweep.merged_metrics(),
        "events": sweep.merged_events(),
        "timelines": sweep.merged_timelines(),
    }
    return json.dumps(doc, sort_keys=True, default=str).encode()


def _sweep(**kwargs) -> SweepResult:
    return run_sweep(apps=APPS, pairs=PAIRS, use_cache=False, **kwargs)


class TestByteIdentity:
    @pytest.fixture(scope="class")
    def serial_bytes(self):
        return _fingerprint(_sweep(executor="serial"))

    def test_thread_matches_serial(self, serial_bytes):
        assert _fingerprint(_sweep(executor="thread",
                                   workers=2)) == serial_bytes

    def test_process_matches_serial(self, serial_bytes):
        assert _fingerprint(_sweep(executor="process",
                                   workers=2)) == serial_bytes

    def test_spawned_process_matches_serial(self, serial_bytes):
        # spawn children start from a fresh interpreter: this is the
        # strictest test of the picklable-outcome + env-forwarding
        # contract (fork inherits everything for free, spawn does not).
        assert _fingerprint(_sweep(executor="process", workers=2,
                                   start_method="spawn")) == serial_bytes

    def test_auto_workers_matches_serial(self, serial_bytes):
        assert _fingerprint(_sweep(workers="auto")) == serial_bytes


class TestExecutorSelection:
    def test_workers_auto_means_cpu_count(self):
        expected = min(os.cpu_count() or 1, 4)
        assert _resolve_workers("auto", 4) == expected

    @pytest.mark.parametrize("bad", ["abc", 0, -3, "0", "-3", 2.5])
    def test_bad_workers_raise(self, bad):
        with pytest.raises(ValueError, match="'auto' or an integer >= 1"):
            _resolve_workers(bad, 4)

    def test_explicit_arg_beats_env(self, monkeypatch):
        monkeypatch.setenv(SWEEP_EXECUTOR_ENV, "thread")
        assert _resolve_executor("process", workers=2) == "process"

    def test_env_beats_default(self, monkeypatch):
        monkeypatch.setenv(SWEEP_EXECUTOR_ENV, "thread")
        assert _resolve_executor(None, workers=2) == "thread"

    def test_default_is_process_when_parallel(self, monkeypatch):
        monkeypatch.delenv(SWEEP_EXECUTOR_ENV, raising=False)
        assert _resolve_executor(None, workers=2) == "process"
        assert _resolve_executor(None, workers=1) == "serial"

    def test_unknown_executor_raises(self):
        with pytest.raises(ValueError, match="unknown sweep executor"):
            _resolve_executor("greenlet", workers=2)

    def test_env_knob_drives_run_sweep(self, monkeypatch):
        monkeypatch.setenv(SWEEP_EXECUTOR_ENV, "nonsense")
        with pytest.raises(ValueError):
            _sweep(workers=2)


class TestEnvForwarding:
    def test_forwarded_set_covers_telemetry_knobs(self):
        assert "FLUX_METRICS" in harness.FORWARDED_ENV
        assert "FLUX_EVENTS" in harness.FORWARDED_ENV
        assert "FLUX_EVENTS_CAP" in harness.FORWARDED_ENV
        assert "FLUX_TIMELINE" in harness.FORWARDED_ENV

    def test_sealed_worker_applies_env(self, monkeypatch):
        monkeypatch.setenv("FLUX_EVENTS", "stale")
        home, guest = PAIRS[0]
        outcome = harness._sealed_worker(
            harness.run_pair, (home, guest, [APPS[0]], 0, False),
            {"FLUX_EVENTS": "0"})
        assert os.environ["FLUX_EVENTS"] == "0"
        assert outcome.events == []     # knob took effect pre-simulation

    def test_sealed_worker_unsets_absent_env(self, monkeypatch):
        monkeypatch.setenv("FLUX_EVENTS", "0")
        home, guest = PAIRS[0]
        outcome = harness._sealed_worker(
            harness.run_pair, (home, guest, [APPS[0]], 0, False),
            {"FLUX_EVENTS": None})
        assert "FLUX_EVENTS" not in os.environ
        assert outcome.events            # default: events on


class TestSweepCacheLRU:
    def test_cache_is_bounded(self):
        clear_sweep_cache()
        apps = [app_by_title("ZEDGE")]
        for seed in range(harness._SWEEP_CACHE_MAX + 4):
            run_sweep(apps=apps, pairs=[PAIRS[0]], seed=seed)
        assert len(harness._SWEEP_CACHE) == harness._SWEEP_CACHE_MAX

    def test_eviction_is_least_recently_used(self):
        clear_sweep_cache()
        apps = [app_by_title("ZEDGE")]
        first = run_sweep(apps=apps, pairs=[PAIRS[0]], seed=0)
        for seed in range(1, harness._SWEEP_CACHE_MAX):
            run_sweep(apps=apps, pairs=[PAIRS[0]], seed=seed)
        # Touch seed 0 so it is the most recently used, then overflow.
        assert run_sweep(apps=apps, pairs=[PAIRS[0]], seed=0) is first
        run_sweep(apps=apps, pairs=[PAIRS[0]],
                  seed=harness._SWEEP_CACHE_MAX)
        assert run_sweep(apps=apps, pairs=[PAIRS[0]], seed=0) is first
        # seed 1 was the LRU entry and must have been evicted.
        keys = list(harness._SWEEP_CACHE)
        assert not any(key[2] == 1 for key in keys)

    def test_clear_sweep_cache(self):
        run_sweep(apps=[app_by_title("ZEDGE")], pairs=[PAIRS[0]])
        assert harness._SWEEP_CACHE
        clear_sweep_cache()
        assert not harness._SWEEP_CACHE


class TestEmptySweepAverages:
    def test_zero_reports_average_to_zero(self):
        empty = SweepResult(pair_labels=["a to b"], app_titles=["X"],
                            reports={})
        assert empty.average_total_seconds() == 0.0
        assert empty.average_perceived_seconds() == 0.0
        assert empty.average_non_transfer_seconds() == 0.0
        assert empty.average_stage_fraction("transfer") == 0.0
