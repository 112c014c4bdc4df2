"""Bookkeeping shared by the untraced and the traced run."""

from __future__ import annotations

import gc
import time
from typing import Any, Dict, List, Tuple

#: A run times at least this many whole seed cycles, so that every seed
#: repeats and the cycle median has company.
MIN_CYCLES = 2


class Checks:
    """Output checks across a run: per-iteration problems and repeats."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.digests: Dict[int, str] = {}
        self.outcomes: Dict[int, Any] = {}

    def record(self, seed: int, outcome, label: str = "") -> None:
        self.attempted += 1
        problems = list(outcome.problems)
        first = self.digests.setdefault(seed, outcome.digest)
        self.outcomes.setdefault(seed, outcome)
        if outcome.digest != first:
            problems.append(f"seed {seed}{label}: outputs differ from the "
                            f"seed's first run ({outcome.digest[:12]} != "
                            f"{first[:12]})")
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def fail(self, problem: str) -> None:
        self.attempted += 1
        self.failed += 1
        self.problems.append(problem)


def timed_iteration(workload, seed: int, calibrator
                    ) -> Tuple[Any, float, float]:
    """(raw results, host seconds, factor to reference speed)."""
    gc.collect()
    start = time.perf_counter()
    raw = workload.run(seed)
    elapsed = time.perf_counter() - start
    return raw, elapsed, calibrator.factor()


def warm_up(workload, checks: Checks) -> None:
    """Set-up in the measuring process: inputs, then the discarded first
    iteration (checked like every other)."""
    workload.prepare()
    seed = workload.warm_up_seed
    checks.record(seed, workload.examine(seed, workload.run(seed)),
                  " (warm-up)")
