"""The traced run: per-layer host time, counts and their checks.

Untraced and traced seed cycles alternate after the warm-up.  The
wrappers are installed around each traced iteration only and removed
right after it, so the untraced cycles (and every output check) run on
the unmodified simulator.  End-to-end numbers never come from here;
``trace.overhead`` is the ratio of the two kinds of cycle.
"""

from __future__ import annotations

import gc
import math
import time
from typing import Any, Dict, List, Tuple

from fluxbench import stats, targets
from fluxbench.layers import Ledger
from fluxbench.measure import MIN_CYCLES, Checks, timed_iteration, warm_up

#: Counts that must repeat exactly across iterations of one seed.
EXACT = targets.COUNTS + ("events.evicted", "bundle.bytes", "chunks.hits",
                          "chunks.misses", "placement.feasible",
                          "placement.considered")


def traced_iteration(ledger: Ledger, workload, seed: int, checks: Checks,
                     calibrator) -> Tuple[Any, float, Dict[str, float]]:
    """One iteration under the wrappers: (raw results, seconds, layer
    values), seconds and host times scaled to reference speed."""
    gc.collect()
    ledger.reset()
    patcher = targets.install(ledger)
    try:
        raw, wall = ledger.measure("other", workload.run, seed)
    finally:
        patcher.restore()
    factor = calibrator.factor()
    stale = targets.leftover_wrappers()
    if stale:
        checks.fail(f"wrappers left behind after a traced iteration: "
                    f"{stale}")
    values = targets.layer_values(ledger)
    ledger.reset()
    total = sum(values[f"{name}.self_s"] for name in targets.SELF_LAYERS)
    if not math.isclose(total, wall, rel_tol=1e-9, abs_tol=1e-9):
        checks.fail(f"seed {seed}: per-layer self times sum to {total!r} s, "
                    f"the iteration took {wall!r} s")
    for name, (unit, _) in targets.PER_LAYER.items():
        if unit == "s" and name in values:
            values[name] *= factor
    return raw, wall * factor, values


def _ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def run_traced(args, workload, checks: Checks, calibrator
               ) -> Tuple[Dict[str, float], Dict[str, str]]:
    warm_up(workload, checks)
    calibrator.mark()
    ledger = Ledger()
    untraced: List[float] = []
    traced: List[float] = []
    cycle_values: List[Dict[str, float]] = []
    exact: Dict[int, Dict[str, float]] = {}
    started = time.monotonic()
    while len(traced) < MIN_CYCLES or time.monotonic() - started \
            < args.seconds:
        total = 0.0
        for seed in workload.seeds:
            raw, elapsed, factor = timed_iteration(workload, seed,
                                                   calibrator)
            total += elapsed * factor
            checks.record(seed, workload.examine(seed, raw), " (untraced)")
            del raw
        untraced.append(total)

        total = 0.0
        summed: Dict[str, float] = {}
        for seed in workload.seeds:
            raw, elapsed, values = traced_iteration(ledger, workload, seed,
                                                    checks, calibrator)
            total += elapsed
            checks.record(seed, workload.examine(seed, raw), " (traced)")
            del raw
            counts = {name: values[name] for name in EXACT}
            first = exact.setdefault(seed, counts)
            if counts != first:
                changed = sorted(name for name in EXACT
                                 if counts[name] != first[name])
                checks.fail(f"seed {seed}: counts changed between traced "
                            f"iterations: {changed}")
            for name, value in values.items():
                summed[name] = summed.get(name, 0.0) + value
        traced.append(total)
        cycle_values.append(summed)

    per_iteration = len(workload.seeds)
    metrics: Dict[str, float] = {}
    for name in targets.PER_LAYER:
        if name in cycle_values[0]:
            metrics[name] = stats.median(
                [cycle[name] for cycle in cycle_values]) / per_iteration
    counts = cycle_values[0]
    lookups = counts["chunks.hits"] + counts["chunks.misses"]
    metrics["chunks.lookups"] = lookups / per_iteration
    metrics["chunks.hit_ratio"] = _ratio(counts["chunks.hits"], lookups)
    metrics["placement.feasible_ratio"] = _ratio(
        counts["placement.feasible"], counts["placement.considered"])
    queue = dilation = 0.0
    for seed in workload.seeds:
        for row in checks.outcomes[seed].rows:
            profile = row.get("wait_profile") or {}
            queue += (profile.get("admission_queue_s", 0.0)
                      + profile.get("resource_wait_s", 0.0))
            dilation += profile.get("link_dilation_s", 0.0)
    metrics["scheduler.queue_sim_s"] = queue / per_iteration
    metrics["medium.dilation_sim_s"] = dilation / per_iteration
    metrics["trace.overhead"] = stats.median(traced) / stats.median(untraced)
    metrics = {name: metrics[name] for name in targets.PER_LAYER}

    print(f"{len(traced)} traced and {len(untraced)} untraced cycles of "
          f"{per_iteration} iterations; values are per iteration, host "
          f"seconds at reference speed unless marked")
    for name, value in metrics.items():
        unit = targets.PER_LAYER[name][0]
        print(f"{name:<28} {value:>16.6f} {unit}")
    units = {name: targets.PER_LAYER[name][0] for name in metrics}
    return metrics, units
