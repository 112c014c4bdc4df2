"""Which simulator functions the traced run wraps, and what they report.

Each :class:`Target` charges calls of one public function (or method) of
a layer module to that layer.  The layers follow the repository's
modules; ``README.md`` in this directory lists which end-to-end metric
each one should move, and on which workload.

``Medium._fire`` is the one private name: it is the link arbiter's
entry point from the virtual clock's timers, so without it the
arbitration work would be charged to whichever layer advanced the
clock.
"""

from __future__ import annotations

import importlib
import os
import sys
import types
from typing import Any, Callable, Dict, List, NamedTuple, Optional, Tuple

from fluxbench.layers import Hook, Ledger, Patcher, wrap_call

#: Layers with a self time, in report order.  ``other`` is the root
#: frame: iteration time that no wrapped call claimed.
SELF_LAYERS = (
    "device", "pairing", "storage",
    "stage.preparation", "stage.checkpoint", "stage.transfer",
    "stage.restore", "stage.reintegration",
    "cria", "record", "replay", "chunks", "placement",
    "scheduler", "medium",
    "metrics", "events", "timeline", "trace",
    "merge", "bundle", "diff", "postmortem", "app", "other",
)

#: Inclusive timers (outermost frames only), reported as ``<name>``.
TIMERS = ("device.boot_s", "storage.sync_s", "cria.checkpoint_s",
          "cria.restore_s", "bundle.write_s", "bundle.load_s")

#: Call counters, reported as ``<name>``.
COUNTS = ("device.boots", "pairing.pairs", "storage.sync_calls",
          "stage.rollbacks", "record.calls", "replay.calls",
          "placement.decisions", "scheduler.sessions", "medium.flows",
          "metrics.samples", "events.emitted", "timeline.samples",
          "trace.spans", "merge.calls")

#: Every per-layer metric the traced run prints: name -> (unit, better).
PER_LAYER: Dict[str, Tuple[str, str]] = {}
for _name in SELF_LAYERS:
    PER_LAYER[f"{_name}.self_s"] = ("s", "lower")
for _name in TIMERS:
    PER_LAYER[_name] = ("s", "lower")
for _name in COUNTS:
    PER_LAYER[_name] = ("count", "lower")
PER_LAYER.update({
    "events.evicted": ("count", "lower"),
    "bundle.bytes": ("bytes", "lower"),
    "chunks.lookups": ("count", "lower"),
    "chunks.hit_ratio": ("ratio", "higher"),
    "placement.feasible_ratio": ("ratio", "higher"),
    "scheduler.queue_sim_s": ("sim_s", "lower"),
    "medium.dilation_sim_s": ("sim_s", "lower"),
    "trace.overhead": ("ratio", "lower"),
})


class Target(NamedTuple):
    layer: Optional[str]
    module: str
    name: str                       # "func" or "Class.method"
    timer: Optional[str] = None
    count: Optional[str] = None
    hook: Optional[Hook] = None
    gen: bool = False
    gen_arg: Optional[int] = None


def _split_hook(ledger: Ledger, args: tuple, kwargs: dict, result: Any) -> None:
    cached, missing = result
    ledger.extra["chunks.hits"] += len(cached)
    ledger.extra["chunks.misses"] += len(missing)


def _choose_hook(ledger: Ledger, args: tuple, kwargs: dict,
                 result: Any) -> None:
    ledger.extra["placement.feasible"] += result.feasible
    ledger.extra["placement.considered"] += result.considered


def _recorder_hook(ledger: Ledger, args: tuple, kwargs: dict,
                   result: Any) -> None:
    ledger.instances["recorders"].append(args[0])


def _bundle_bytes_hook(ledger: Ledger, args: tuple, kwargs: dict,
                       result: Any) -> None:
    path = str(result)
    if os.path.isdir(path):
        size = sum(os.path.getsize(os.path.join(path, name))
                   for name in os.listdir(path))
    else:
        size = os.path.getsize(path)
    ledger.extra["bundle.bytes"] += size


_STAGES = ("Preparation", "Checkpoint", "Transfer", "Restore",
           "Reintegration")
_MIGRATION = "repro.core.migration"

TARGETS: Tuple[Target, ...] = (
    Target("device", "repro.android.device", "Device.__init__",
           timer="device.boot_s", count="device.boots"),
    Target("pairing", f"{_MIGRATION}.pairing", "PairingService.pair",
           count="pairing.pairs"),
    Target("storage", "repro.android.storage.sync", "RsyncEngine.sync",
           timer="storage.sync_s", count="storage.sync_calls"),
    *(Target(f"stage.{stage.lower()}", f"{_MIGRATION}.stages",
             f"{stage}Stage.steps", gen=True) for stage in _STAGES),
    # Rollbacks only count: a compensation's time belongs to the stage
    # pipeline that ran it.
    *(Target(None, f"{_MIGRATION}.stages", f"{cls}.rollback",
             count="stage.rollbacks")
      for cls in ("Stage", "PreparationStage", "CheckpointStage",
                  "RestoreStage")),
    Target("cria", "repro.core.cria.checkpoint", "checkpoint_app",
           timer="cria.checkpoint_s"),
    Target("cria", "repro.core.cria.restore", "restore_app",
           timer="cria.restore_s"),
    Target("record", "repro.core.record.recorder", "Recorder.on_call",
           count="record.calls"),
    Target("record", "repro.core.record.recorder",
           "Recorder.extract_app_log"),
    Target("record", "repro.core.record.recorder", "Recorder.forget_app"),
    Target("replay", "repro.core.replay.engine", "replay_log"),
    Target("replay", "repro.core.replay.engine", "ReplaySession.invoke",
           count="replay.calls"),
    Target("chunks", f"{_MIGRATION}.chunks", "chunk_image"),
    Target("chunks", f"{_MIGRATION}.chunks", "ChunkStore.split",
           hook=_split_hook),
    Target("chunks", f"{_MIGRATION}.chunks", "ChunkStore.add_many"),
    Target("placement", f"{_MIGRATION}.placement", "PlacementEngine.choose",
           count="placement.decisions", hook=_choose_hook),
    Target("placement", f"{_MIGRATION}.placement", "LoadLedger.view"),
    Target("placement", f"{_MIGRATION}.placement", "LoadLedger.commit"),
    Target("placement", f"{_MIGRATION}.placement",
           "predict_migration_seconds"),
    Target("scheduler", "repro.sim.scheduler", "Scheduler.run"),
    Target("scheduler", "repro.sim.scheduler", "Scheduler.spawn",
           count="scheduler.sessions", gen_arg=1),
    Target("scheduler", "repro.sim.scheduler", "Resource.acquire"),
    Target("scheduler", "repro.sim.scheduler", "Resource.try_acquire"),
    Target("scheduler", "repro.sim.scheduler", "Resource.release"),
    Target("medium", "repro.android.net.link", "Medium.submit",
           count="medium.flows"),
    Target("medium", "repro.android.net.link", "Medium._fire"),
    Target("metrics", "repro.sim.metrics", "Counter.inc",
           count="metrics.samples"),
    Target("metrics", "repro.sim.metrics", "Gauge.set",
           count="metrics.samples"),
    Target("metrics", "repro.sim.metrics", "Gauge.add"),
    Target("metrics", "repro.sim.metrics", "Histogram.observe",
           count="metrics.samples"),
    Target("metrics", "repro.sim.metrics", "MetricsRegistry.counter"),
    Target("metrics", "repro.sim.metrics", "MetricsRegistry.gauge"),
    Target("metrics", "repro.sim.metrics", "MetricsRegistry.histogram"),
    Target("metrics", "repro.sim.metrics", "MetricsRegistry.snapshot"),
    Target("events", "repro.sim.events", "FlightRecorder.__init__",
           hook=_recorder_hook),
    Target("events", "repro.sim.events", "FlightRecorder.emit",
           count="events.emitted"),
    Target("events", "repro.sim.events", "FlightRecorder.export"),
    Target("timeline", "repro.sim.timeline", "Timeline.sample",
           count="timeline.samples"),
    Target("timeline", "repro.sim.timeline", "Timeline.export"),
    Target("trace", "repro.sim.trace", "Tracer.span", count="trace.spans"),
    Target("trace", "repro.sim.trace", "Tracer.add_span",
           count="trace.spans"),
    Target("trace", "repro.sim.trace", "Tracer.end_span"),
    Target("trace", "repro.sim.trace", "Tracer.emit"),
    Target("merge", "repro.experiments.harness", "merge_pair_outcomes",
           count="merge.calls"),
    Target("merge", "repro.experiments.fleet", "merge_site_outcomes",
           count="merge.calls"),
    Target("merge", "repro.sim.metrics", "merge_snapshots",
           count="merge.calls"),
    Target("merge", "repro.sim.events", "merge_streams",
           count="merge.calls"),
    Target("merge", "repro.sim.timeline", "merge_timelines",
           count="merge.calls"),
    Target("bundle", "repro.sim.bundle", "write_bundle",
           timer="bundle.write_s", hook=_bundle_bytes_hook),
    Target("bundle", "repro.sim.bundle", "RunBundle.load",
           timer="bundle.load_s"),
    Target("bundle", "repro.sim.bundle", "collect_fingerprint"),
    Target("diff", "repro.sim.diffing", "diff_bundles"),
    Target("postmortem", f"{_MIGRATION}.postmortem", "postmortem_from_bundle"),
    Target("postmortem", f"{_MIGRATION}.postmortem", "build_postmortem"),
    Target("postmortem", f"{_MIGRATION}.postmortem", "build_blame"),
    Target("app", "repro.apps.common", "AppSpec.install"),
    Target("app", "repro.apps.common", "AppSpec.install_and_launch"),
)

_MARK = "_fluxbench_wrapper"


def _resolve(target: Target) -> Tuple[Any, str]:
    module = importlib.import_module(target.module)
    if "." in target.name:
        cls_name, attr = target.name.split(".")
        return getattr(module, cls_name), attr
    return module, target.name


def install(ledger: Ledger) -> Patcher:
    """Wrap every target; returns the patcher that undoes it."""
    patcher = Patcher("repro")

    def maker(target: Target) -> Callable[[Callable[..., Any]],
                                          Callable[..., Any]]:
        def make(fn: Callable[..., Any]) -> Callable[..., Any]:
            wrapper = wrap_call(ledger, target.layer, fn, timer=target.timer,
                                count=target.count, hook=target.hook,
                                gen=target.gen, gen_arg=target.gen_arg)
            setattr(wrapper, _MARK, True)
            return wrapper
        return make

    try:
        for target in TARGETS:
            owner, attr = _resolve(target)
            if isinstance(owner, type):
                patcher.wrap_method(owner, attr, maker(target))
            else:
                patcher.wrap_function(getattr(owner, attr), maker(target))
    except BaseException:
        patcher.restore()
        raise
    return patcher


def leftover_wrappers() -> List[str]:
    """Every wrapper still reachable from a loaded ``repro`` module or
    one of its classes (empty once :meth:`Patcher.restore` ran)."""
    found = []
    for module_name, module in list(sys.modules.items()):
        if module is None or not module_name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            if getattr(value, _MARK, False):
                found.append(f"{module_name}.{attr}")
            elif (isinstance(value, type)
                  and value.__module__ == module_name):
                for name, raw in vars(value).items():
                    fn = getattr(raw, "__func__", raw)
                    if isinstance(fn, types.FunctionType) and getattr(
                            fn, _MARK, False):
                        found.append(f"{module_name}.{attr}.{name}")
    return found


def layer_values(ledger: Ledger) -> Dict[str, float]:
    """One traced iteration's per-layer numbers (host time, counts)."""
    unknown = set(ledger.self_s) - set(SELF_LAYERS)
    if unknown:
        raise RuntimeError(f"frames charged to unlisted layers: "
                           f"{sorted(unknown)}")
    values: Dict[str, float] = {}
    for name in SELF_LAYERS:
        values[f"{name}.self_s"] = ledger.self_s.get(name, 0.0)
    for name in TIMERS:
        values[name] = ledger.inclusive_s.get(name, 0.0)
    for name in COUNTS:
        values[name] = ledger.counts.get(name, 0)
    values["events.evicted"] = sum(recorder.evicted for recorder
                                   in ledger.instances["recorders"])
    values["bundle.bytes"] = ledger.extra["bundle.bytes"]
    for key in ("chunks.hits", "chunks.misses", "placement.feasible",
                "placement.considered"):
        values[key] = ledger.extra[key]
    return values
