"""Sweep benchmark payloads and the ``bench-check`` regression gate.

``BENCH_sweep.json`` (repo root) records what regenerating the Figure 12
sweep costs and produces.  Schema 3 split the record in two; schema 4
adds a third, **non-gating** ``fleet`` section — the pinned fleet run's
wall clock, simulated makespan, tail latency and refusal rate — so the
fleet layer's cost is tracked run over run without making the gate
flaky (the row is informational, like the wall section: :func:`check`
never compares it).

* ``wall`` — real wall-clock seconds for the sweep in all three
  executor modes (serial, thread pool, process pool) plus per-pair
  serial walls: each the median of :data:`TRIALS` interleaved timed
  runs after one discarded warm-up per mode, with the spread (max −
  min) of those runs.  The absolute numbers are **informational
  only**: wall clock depends on the machine, the interpreter, and
  background load, so it is reported but never compared against the
  baseline.  The one
  wall-derived quantity that *does* gate is ``process_speedup`` — on a
  multi-core machine (``cpu_count >= 2``) the process executor must not
  be slower than serial, or the whole point of the executor layer has
  regressed.  Single-core machines skip that gate: there a process
  pool only adds fork overhead, which is expected.
* ``sim`` — quantities computed *inside* the simulation: average stage
  timings on the virtual clock and the per-subsystem counter totals
  from the metrics registry.  These are deterministic for a given seed,
  so a drift here means the simulation's behavior changed — that is
  what :func:`check` gates, within a small tolerance band that absorbs
  intentional rounding.

``flux-sim bench-check`` runs the sweep, rebuilds the payload, and
compares it against the committed baseline; ``--update`` rewrites the
baseline instead (do this deliberately, in the commit that changes the
simulation, and say why in CHANGES.md).
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from repro.android.hardware.profiles import PAPER_DEVICE_PAIRS
from repro.apps.catalog import MIGRATABLE_APPS
from repro.experiments.harness import (SweepResult, merge_pair_outcomes,
                                       pair_label, run_pair, run_sweep)
from repro.sim.metrics import rollup_counters


SCHEMA_VERSION = 4
BENCH_PATH = Path(__file__).resolve().parents[3] / "BENCH_sweep.json"
WORKERS = 4

#: Timed runs per executor mode.  One ~0.3 s run per mode made the
#: process-speedup gate flaky (0.80 to 2.10 on one 2-core host: a cold
#: pool racing a warm serial pass, plus host noise); interleaving the
#: modes and taking medians puts every mode under the same conditions.
#: Odd, so the median is one measured run.
TRIALS = 3

#: The pinned fleet configuration the non-gating ``fleet`` row records
#: (matches the CI fleet smoke job and the placement ablation).
FLEET_BENCH = {"devices": 12, "arrivals": 40, "seed": 7,
               "policy": "cost-model"}

#: Relative drift allowed on gated simulation quantities.  The sweep is
#: deterministic, so in principle this could be zero; 2% absorbs
#: deliberate rounding in the payload and tiny float-summation changes.
SIM_TOLERANCE = 0.02

#: The counter totals the gate watches — one load-bearing series per
#: instrumented subsystem, so a silent regression in any layer
#: (interposition, record, replay, chunk cache, link, CRIA) moves at
#: least one of them.
GATED_COUNTERS = (
    "binder/transactions",
    "binder/parcel_bytes",
    "record/calls_recorded",
    "record/calls_pruned",
    "replay/calls_replayed",
    "replay/calls_proxied",
    "chunks/wire_bytes",
    "link/bytes_total",
    "link/transfers",
    "cria/checkpoints",
    "cria/pages",
    "cria/restore_sub_ops",
)


def _serial_sweep(per_pair: Dict[str, List[float]]) -> SweepResult:
    """One serial sweep, run pair by pair so each pair's wall is kept.

    That per-pair breakdown tells you whether the sweep is balanced
    enough for a pool to help; the outcomes fold through
    :func:`merge_pair_outcomes`, the same merge the pooled executors use.
    """
    outcomes = []
    for home_profile, guest_profile in PAPER_DEVICE_PAIRS:
        start = time.perf_counter()
        outcomes.append(run_pair(home_profile, guest_profile,
                                 MIGRATABLE_APPS, seed=0,
                                 include_failures=False))
        per_pair.setdefault(pair_label(home_profile, guest_profile),
                            []).append(time.perf_counter() - start)
    return merge_pair_outcomes(PAPER_DEVICE_PAIRS, MIGRATABLE_APPS,
                               outcomes)


def measure_sweep(workers: int = WORKERS
                  ) -> Tuple[SweepResult, Dict[str, float],
                             float, float, float, Dict[str, float]]:
    """Time the sweep in all three executor modes.

    Every mode first runs once untimed (first-use caches, the first
    pool's start-up), then :data:`TRIALS` rounds each time serial,
    thread and process back to back, so host load drift lands on every
    mode alike.  Returns ``(sweep, per_pair_serial_s, serial_s,
    thread_s, process_s, spread_s)``: medians over the timed runs, and
    per mode the spread (max − min) of its runs.
    """
    per_pair: Dict[str, List[float]] = {}
    modes = {
        "serial": lambda: _serial_sweep(per_pair),
        "thread": lambda: run_sweep(use_cache=False, workers=workers,
                                    executor="thread"),
        "process": lambda: run_sweep(use_cache=False, workers=workers,
                                     executor="process"),
    }
    sweep = modes["serial"]()           # untimed warm-up of every mode
    modes["thread"]()
    modes["process"]()
    per_pair.clear()
    walls: Dict[str, List[float]] = {mode: [] for mode in modes}
    for _ in range(TRIALS):
        for mode, run in modes.items():
            start = time.perf_counter()
            run()
            walls[mode].append(time.perf_counter() - start)
    median = {mode: sorted(runs)[TRIALS // 2]
              for mode, runs in walls.items()}
    spread = {mode: max(runs) - min(runs) for mode, runs in walls.items()}
    per_pair_s = {label: round(sorted(runs)[TRIALS // 2], 4)
                  for label, runs in per_pair.items()}
    return (sweep, per_pair_s, median["serial"], median["thread"],
            median["process"], spread)


def measure_fleet() -> Dict:
    """The non-gating fleet row: run the pinned fleet, record its cost.

    ``wall_s`` is machine-dependent (informational, like the wall
    section); ``sim_makespan_s``, ``p95_s`` and ``refusal_rate`` are
    deterministic for the pinned seed but still not gated — the fleet
    byte-identity tests and the CI smoke job own that contract.
    """
    from repro.experiments.fleet import FleetSpec, run_fleet
    start = time.perf_counter()
    result = run_fleet(FleetSpec(**FLEET_BENCH))
    wall_s = time.perf_counter() - start
    return {
        **FLEET_BENCH,
        "wall_s": round(wall_s, 4),
        "sim_makespan_s": round(result.makespan, 4),
        "p95_s": result.slo["p95_s"],
        "refusal_rate": result.slo["refusal_rate"],
    }


def build_payload(sweep: SweepResult, serial_s: float, thread_s: float,
                  process_s: float,
                  per_pair_serial_s: Optional[Dict[str, float]] = None,
                  workers: int = WORKERS,
                  fleet_row: Optional[Dict] = None,
                  spread_s: Optional[Dict[str, float]] = None) -> Dict:
    """The schema-4 ``BENCH_sweep.json`` document for one sweep run."""
    rollup = rollup_counters(sweep.merged_metrics())
    dominant: Dict[str, int] = {}
    for report in sweep.all_reports():
        stage = report.dominant_stage or "?"
        dominant[stage] = dominant.get(stage, 0) + 1
    return {
        "benchmark": "fig12_sweep_wall_clock",
        "schema": SCHEMA_VERSION,
        "workers": workers,
        "executor": "process",
        "cpu_count": os.cpu_count() or 1,
        "cells": len(sweep.reports),
        "wall": {
            "serial_s": round(serial_s, 4),
            "thread_s": round(thread_s, 4),
            "process_s": round(process_s, 4),
            "thread_speedup": (round(serial_s / thread_s, 3)
                               if thread_s else None),
            "process_speedup": (round(serial_s / process_s, 3)
                                if process_s else None),
            "per_pair_serial_s": dict(sorted(
                (per_pair_serial_s or {}).items())),
            "spread_s": {mode: round(value, 4) for mode, value
                         in sorted((spread_s or {}).items())},
        },
        "sim": {
            "avg_total_seconds": round(sweep.average_total_seconds(), 4),
            "avg_perceived_seconds": round(
                sweep.average_perceived_seconds(), 4),
            "avg_non_transfer_seconds": round(
                sweep.average_non_transfer_seconds(), 4),
            "dominant_stages": dict(sorted(dominant.items())),
            "counters": {key: rollup.get(key, 0) for key in GATED_COUNTERS},
        },
        # Informational only — check() never compares this section.
        "fleet": fleet_row or {},
    }


def _relative_drift(current: float, baseline: float) -> float:
    if baseline == 0:
        return 0.0 if current == 0 else float("inf")
    return abs(current - baseline) / abs(baseline)


def check(current: Dict, baseline: Dict,
          tolerance: float = SIM_TOLERANCE) -> List[str]:
    """Problems (empty = pass) comparing ``current`` vs ``baseline``.

    The ``sim`` section gates against the baseline; a schema-1 baseline
    (no ``sim``) is itself a problem — refresh it with ``bench-check
    --update``.  The wall section never compares against the baseline,
    but the *current* run's ``process_speedup`` must be >= 1.0 whenever
    the current machine has more than one core (single-core machines
    skip this: fork overhead with no parallelism is expected there).
    """
    problems: List[str] = []
    if current.get("cpu_count", 1) >= 2:
        speedup = current.get("wall", {}).get("process_speedup")
        if speedup is not None and speedup < 1.0:
            problems.append(
                f"process-executor sweep slower than serial on a "
                f"{current['cpu_count']}-core machine: speedup "
                f"{speedup} < 1.0")
    base_sim = baseline.get("sim")
    if not base_sim:
        problems.append(f"baseline has no 'sim' section (schema "
                        f"{baseline.get('schema', 1)}); refresh it with "
                        "'flux-sim bench-check --update'")
        return problems
    sim = current["sim"]

    if current.get("cells") != baseline.get("cells"):
        problems.append(f"sweep cells changed: {baseline.get('cells')} "
                        f"-> {current.get('cells')}")

    # One formatter for every drift message, shared with flux-sim diff:
    # the gate and the diff engine describe the same delta in the same
    # words, band edges included.
    from repro.sim.diffing import format_delta
    for field in ("avg_total_seconds", "avg_perceived_seconds",
                  "avg_non_transfer_seconds"):
        drift = _relative_drift(sim[field], base_sim.get(field, 0))
        if drift > tolerance:
            problems.append(format_delta(field, base_sim.get(field, 0),
                                         sim[field], tolerance))

    base_counters = base_sim.get("counters", {})
    for key, value in sim["counters"].items():
        if key not in base_counters:
            continue            # counter added since the baseline: fine
        drift = _relative_drift(value, base_counters[key])
        if drift > tolerance:
            problems.append(format_delta(f"counter {key}",
                                         base_counters[key], value,
                                         tolerance))

    if sim.get("dominant_stages") != base_sim.get("dominant_stages"):
        problems.append(
            f"dominant-stage mix changed: {base_sim.get('dominant_stages')} "
            f"-> {sim.get('dominant_stages')}")
    return problems


def format_report(current: Dict, baseline: Dict,
                  problems: List[str]) -> str:
    lines = []
    wall = current.get("wall", {})
    base_wall = baseline.get("wall", {})
    if wall:
        lines.append(
            f"sweep wall clock ({current.get('cpu_count', '?')} cpu): "
            f"serial {wall.get('serial_s')}s, "
            f"thread({current.get('workers')}) {wall.get('thread_s')}s "
            f"(x{wall.get('thread_speedup')}), "
            f"process({current.get('workers')}) {wall.get('process_s')}s "
            f"(x{wall.get('process_speedup')}) "
            f"(baseline serial {base_wall.get('serial_s', '?')}s; "
            "absolute walls informational)")
        spread = wall.get("spread_s") or {}
        if spread:
            lines.append(
                f"medians of {TRIALS} interleaved runs; spread (max - min): "
                + ", ".join(f"{mode} {value}s"
                            for mode, value in spread.items()))
    else:
        # Bundles capture no wall clock; only the sim aggregates gate.
        lines.append("sweep wall clock: not captured (run bundle; "
                     "sim aggregates gated only)")
    fleet = current.get("fleet") or {}
    if fleet:
        lines.append(
            f"fleet row (informational): {fleet.get('devices')} devices / "
            f"{fleet.get('arrivals')} arrivals, seed {fleet.get('seed')}, "
            f"{fleet.get('policy')}: wall {fleet.get('wall_s')}s, sim "
            f"makespan {fleet.get('sim_makespan_s')}s, p95 "
            f"{fleet.get('p95_s')}s, refusal rate "
            f"{fleet.get('refusal_rate')}")
    if problems:
        lines.append(f"BENCH CHECK FAILED ({len(problems)} problem(s)):")
        lines.extend(f"  - {p}" for p in problems)
    else:
        sim = current.get("sim", {})
        lines.append(
            f"bench check OK: {current.get('cells')} cells, avg total "
            f"{sim.get('avg_total_seconds')}s, all "
            f"{len(sim.get('counters', {}))} gated counters within "
            f"{SIM_TOLERANCE:.0%}")
    return "\n".join(lines)


def sim_payload_from_bundle(bundle) -> Dict:
    """A gateable payload rebuilt from a sweep run bundle.

    The bundle's metrics document carries everything the ``sim``
    section gates on: per-migration stage maps (for the averages and
    the dominant-stage mix) and the counter rollup.  Wall clock was
    *not* captured — bundles are wall-free by design — so the ``wall``
    section is empty and ``cpu_count`` is pinned to 1, which skips the
    process-speedup gate.
    """
    document = bundle.metrics_document()
    rows = document.get("migrations") or []
    totals: List[float] = []
    perceived: List[float] = []
    non_transfer: List[float] = []
    dominant: Dict[str, int] = {}
    for row in rows:
        stages = row.get("stages") or {}
        total = float(row.get("total_seconds") or 0.0)
        hidden = (stages.get("preparation", 0.0)
                  + stages.get("checkpoint", 0.0))
        totals.append(total)
        perceived.append(total - hidden)
        non_transfer.append(total - hidden - stages.get("transfer", 0.0))
        stage = row.get("dominant_stage") or "?"
        dominant[stage] = dominant.get(stage, 0) + 1

    def _avg(values: List[float]) -> float:
        return sum(values) / len(values) if values else 0.0

    rollup = document.get("rollup") or rollup_counters(bundle.snapshot())
    return {
        "benchmark": "fig12_sweep_wall_clock",
        "schema": SCHEMA_VERSION,
        "workers": bundle.fingerprint.get("workers"),
        "executor": bundle.fingerprint.get("executor"),
        "cpu_count": 1,
        "cells": len(rows),
        "wall": {},
        "sim": {
            "avg_total_seconds": round(_avg(totals), 4),
            "avg_perceived_seconds": round(_avg(perceived), 4),
            "avg_non_transfer_seconds": round(_avg(non_transfer), 4),
            "dominant_stages": dict(sorted(dominant.items())),
            "counters": {key: rollup.get(key, 0) for key in GATED_COUNTERS},
        },
        "fleet": {},
    }


def run_check(baseline_path: Optional[Path] = None, update: bool = False,
              tolerance: float = SIM_TOLERANCE,
              workers: int = WORKERS,
              bundle: Optional[str] = None) -> Tuple[int, str]:
    """Drive a full bench check (or baseline refresh); (exit, text).

    With ``bundle`` set, the sweep is *not* regenerated: the gate runs
    against the telemetry captured in that run bundle (from ``flux-sim
    sweep --bundle-out``), so a post-mortem can re-gate a historical
    run without its machine.
    """
    path = Path(baseline_path) if baseline_path else BENCH_PATH
    if bundle is not None:
        from repro.sim.bundle import BundleError, RunBundle
        try:
            loaded = RunBundle.load(bundle)
        except BundleError as error:
            return 2, str(error)
        if loaded.kind != "sweep":
            return 2, (f"--bundle expects a sweep bundle; {bundle} is a "
                       f"{loaded.kind!r} bundle")
        if update:
            return 2, ("--bundle cannot --update the baseline: bundles "
                       "capture no wall clock")
        if not path.exists():
            return 2, (f"no baseline at {path}; run 'flux-sim bench-check "
                       f"--update' first")
        current = sim_payload_from_bundle(loaded)
        baseline = json.loads(path.read_text())
        problems = check(current, baseline, tolerance=tolerance)
        return ((1 if problems else 0),
                format_report(current, baseline, problems))
    sweep, per_pair, serial_s, thread_s, process_s, spread = measure_sweep(
        workers=workers)
    current = build_payload(sweep, serial_s, thread_s, process_s,
                            per_pair_serial_s=per_pair, workers=workers,
                            fleet_row=measure_fleet(), spread_s=spread)

    if update or not path.exists():
        path.write_text(json.dumps(current, indent=2) + "\n")
        return 0, (f"wrote baseline {path} (schema {SCHEMA_VERSION}, "
                   f"{current['cells']} cells)")

    baseline = json.loads(path.read_text())
    problems = check(current, baseline, tolerance=tolerance)
    return (1 if problems else 0), format_report(current, baseline, problems)
