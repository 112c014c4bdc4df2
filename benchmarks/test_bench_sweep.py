"""Wall-clock bench: the Figure 12 sweep across all three executors.

Times the real (not simulated) cost of regenerating the four-pair,
sixteen-app sweep serially (with per-pair walls), on a thread pool,
and on a process pool, and records the schema-3 payload in
``BENCH_sweep.json`` at the repo root via
:mod:`repro.experiments.bench`.

Absolute walls are **non-gating** here: each device pair is an
independent simulation, but the thread executor shares one GIL (so it
times concurrency, not parallelism) and the process executor's gain
depends on the machine's core count.  What *is* gated here is
correctness — every executor's sweep must stay bit-identical to the
serial one (reports *and* aggregated metrics) even while we time it.
The ``sim`` section and the multi-core ``process_speedup >= 1.0``
floor are gated separately by ``flux-sim bench-check``.
"""

import json

import pytest

from repro.experiments import bench
from repro.experiments.harness import run_sweep


@pytest.mark.perf
class TestSweepWallClock:
    def test_executor_sweep_wall_clock(self):
        sweep, per_pair, serial_s, thread_s, process_s, spread = \
            bench.measure_sweep(workers=bench.WORKERS)

        # Gating: determinism.  A pooled run must reproduce the serial
        # run exactly, whatever the interleaving did.
        parallel = run_sweep(use_cache=False, workers=bench.WORKERS,
                             executor="process")
        assert sweep.reports.keys() == parallel.reports.keys()
        for key, report in sweep.reports.items():
            other = parallel.reports[key]
            assert report.stages == other.stages, key
            assert report.transferred_bytes == other.transferred_bytes, key
        assert sweep.merged_metrics() == parallel.merged_metrics()

        payload = bench.build_payload(sweep, serial_s, thread_s, process_s,
                                      per_pair_serial_s=per_pair,
                                      workers=bench.WORKERS,
                                      spread_s=spread)
        bench.BENCH_PATH.write_text(json.dumps(payload, indent=2) + "\n")
        wall = payload["wall"]
        print(f"\nsweep wall clock ({payload['cpu_count']} cpu): "
              f"serial {wall['serial_s']:.3f}s, "
              f"thread({bench.WORKERS}) {wall['thread_s']:.3f}s "
              f"(x{wall['thread_speedup']}), "
              f"process({bench.WORKERS}) {wall['process_s']:.3f}s "
              f"(x{wall['process_speedup']}) -> {bench.BENCH_PATH.name}")
