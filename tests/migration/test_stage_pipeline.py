"""Stage pipeline: fault injection, rollback atomicity, resume on retry.

The atomicity contract under test: a fault at any stage leaves the app
running (thawed, foregrounded) on the home device, the guest holding no
partial process state, and the record log intact — while what
legitimately survives as *cache* (synced deltas, received chunks) makes
a retry cheaper than the first attempt.
"""

import pytest

from repro.android.app.activity import ActivityState
from repro.android.device import Device
from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
from repro.android.app.notification import Notification
from repro.android.net.link import LinkFaultPlan, link_between
from repro.apps import MIGRATABLE_APPS
from repro.core.cria.errors import MigrationError, MigrationRefusal
from repro.core.cria.restore import RestoreFaultPlan
from repro.core.extensions import FluxExtensions
from repro.core.migration.migration import STAGES, MigrationReport
from repro.core.migration.stages import (
    MigrationContext,
    Stage,
    StagePipeline,
    default_stages,
)
from repro.sim import SimClock, units
from repro.sim.rng import RngFactory
from repro.sim.scheduler import Charge, Scheduler
from tests.conftest import DEMO_PACKAGE, launch_demo


PIPELINED = FluxExtensions(pipelined_transfer=True)


@pytest.fixture
def paired(device_pair):
    home, guest = device_pair
    thread = launch_demo(home)
    nm = thread.context.get_system_service("notification")
    nm.notify(1, Notification("survive me"))
    home.pairing_service.pair(guest)
    return home, guest, thread


def armed_link(home, guest, drop_after_bytes=None, drop_after_transfers=None):
    link = link_between(home.profile, guest.profile, home.rng_factory)
    link.inject_fault(LinkFaultPlan(drop_after_bytes=drop_after_bytes,
                                    drop_after_transfers=drop_after_transfers))
    return link


class TestLinkFaultRollback:
    def drop_mid_transfer(self, home, guest, extensions=None):
        """Drop the link 1 MB in — past the deltas, inside the image."""
        link = armed_link(home, guest, drop_after_bytes=units.mb(1))
        with pytest.raises(MigrationError) as exc:
            home.migration_service.migrate(
                guest, DEMO_PACKAGE, link=link,
                extensions=extensions or FluxExtensions.none())
        assert exc.value.reason is MigrationRefusal.LINK_DOWN
        return home.migration_service.history[-1]

    def test_home_keeps_running_app(self, paired):
        home, guest, thread = paired
        self.drop_mid_transfer(home, guest)
        assert home.running_packages() == [DEMO_PACKAGE]
        assert thread.process.state.value != "frozen"
        activity = next(iter(thread.activities.values()))
        assert activity.state is ActivityState.RESUMED

    def test_guest_holds_no_partial_state(self, paired):
        home, guest, _ = paired
        self.drop_mid_transfer(home, guest)
        assert guest.kernel.processes_of_package(DEMO_PACKAGE) == []
        assert guest.running_packages() == []

    def test_failed_report_records_faulted_stage(self, paired):
        home, guest, _ = paired
        report = self.drop_mid_transfer(home, guest)
        assert not report.success
        assert report.faulted_stage == "transfer"
        assert report.refusal is MigrationRefusal.LINK_DOWN
        # Completed stages plus the faulted stage's partial duration.
        assert set(report.stages) == {"preparation", "checkpoint",
                                      "transfer"}
        assert all(v > 0 for v in report.stages.values())
        # Only the bytes delivered before the drop are accounted.
        assert report.image_wire_bytes < report.image_compressed_bytes

    def test_record_log_survives_rollback(self, paired):
        home, guest, _ = paired
        self.drop_mid_transfer(home, guest)
        log = home.recorder.extract_app_log(DEMO_PACKAGE)
        assert len(log) >= 1

    def test_no_consistency_mark_after_rollback(self, paired):
        home, guest, _ = paired
        self.drop_mid_transfer(home, guest)
        assert home.consistency.is_migrated_out(DEMO_PACKAGE) is None

    def test_retry_over_healthy_link_succeeds(self, paired):
        home, guest, _ = paired
        self.drop_mid_transfer(home, guest)
        report = home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert report.success
        assert guest.running_packages() == [DEMO_PACKAGE]
        assert home.running_packages() == []

    def test_drop_after_transfers_faults_too(self, paired):
        home, guest, _ = paired
        # The serial path's single image+delta send is transfer 0; it
        # dies on departure, delivering nothing.
        link = armed_link(home, guest, drop_after_transfers=0)
        with pytest.raises(MigrationError) as exc:
            home.migration_service.migrate(guest, DEMO_PACKAGE, link=link)
        assert exc.value.reason is MigrationRefusal.LINK_DOWN
        assert home.migration_service.history[-1].image_wire_bytes == 0
        assert home.running_packages() == [DEMO_PACKAGE]


class TestResumeOnRetry:
    def test_pipelined_fault_seeds_chunk_store(self, paired):
        home, guest, _ = paired
        link = armed_link(home, guest, drop_after_bytes=units.mb(1))
        with pytest.raises(MigrationError):
            home.migration_service.migrate(guest, DEMO_PACKAGE, link=link,
                                           extensions=PIPELINED)
        # The fully-delivered prefix entered the guest's store (cache,
        # not app state — the rollback invariant holds separately).
        assert len(guest.chunk_store) > 0
        assert guest.kernel.processes_of_package(DEMO_PACKAGE) == []

    def test_pipelined_retry_resumes(self, paired):
        home, guest, _ = paired
        link = armed_link(home, guest, drop_after_bytes=units.mb(1))
        with pytest.raises(MigrationError):
            home.migration_service.migrate(guest, DEMO_PACKAGE, link=link,
                                           extensions=PIPELINED)
        retry = home.migration_service.migrate(guest, DEMO_PACKAGE,
                                               extensions=PIPELINED)
        assert retry.success
        # The resume signal: chunks delivered before the drop hit the
        # guest's cache, so strictly fewer image bytes travel than the
        # image the retry is moving.
        assert retry.transfer_chunks_cached > 0
        assert retry.chunk_bytes_cached > 0
        assert retry.image_wire_bytes < retry.image_compressed_bytes

    def test_serial_retry_has_no_resume(self, paired):
        home, guest, _ = paired
        link = armed_link(home, guest, drop_after_bytes=units.mb(1))
        with pytest.raises(MigrationError):
            home.migration_service.migrate(guest, DEMO_PACKAGE, link=link)
        retry = home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert retry.success
        assert retry.transfer_chunks_cached == 0
        assert retry.image_wire_bytes == retry.image_compressed_bytes


class TestRestoreFaultRollback:
    @pytest.mark.parametrize("steps", [0, 2, 5])
    def test_rollback_at_every_probe_point(self, paired, steps):
        home, guest, thread = paired
        with pytest.raises(MigrationError) as exc:
            home.migration_service.migrate(
                guest, DEMO_PACKAGE,
                restore_fault=RestoreFaultPlan(fail_after_steps=steps))
        assert exc.value.reason is MigrationRefusal.RESTORE_FAILED
        report = home.migration_service.history[-1]
        assert report.faulted_stage == "restore"
        assert guest.kernel.processes_of_package(DEMO_PACKAGE) == []
        assert home.running_packages() == [DEMO_PACKAGE]
        assert thread.process.state.value != "frozen"

    def test_retry_after_restore_fault(self, paired):
        home, guest, _ = paired
        with pytest.raises(MigrationError):
            home.migration_service.migrate(
                guest, DEMO_PACKAGE,
                restore_fault=RestoreFaultPlan(fail_after_steps=1))
        report = home.migration_service.migrate(guest, DEMO_PACKAGE)
        assert report.success
        assert guest.running_packages() == [DEMO_PACKAGE]

    def test_plan_validates(self):
        with pytest.raises(ValueError):
            RestoreFaultPlan(fail_after_steps=-1)


class _Boom(Stage):
    name = "boom"

    def steps(self, ctx):
        raise RuntimeError("kaboom")
        yield


class _Flaky(Stage):
    name = "flaky"

    def __init__(self):
        self.rolled_back = False

    def steps(self, ctx):
        yield Charge(0.0)

    def rollback(self, ctx):
        self.rolled_back = True
        raise ValueError("compensation bug")


def _drive(steps, clock):
    """Run ``steps`` as a one-session scheduler; re-raise its error."""
    scheduler = Scheduler(clock)
    session = scheduler.spawn(steps)
    scheduler.run()
    if session.error is not None:
        raise session.error
    return session.result


class TestPipelineMechanics:
    def test_default_stage_order_matches_figure_13(self):
        assert [s.name for s in default_stages()] == list(STAGES)

    def _context(self, device_pair):
        home, guest = device_pair
        report = MigrationReport(package="p", home=home.name,
                                 guest=guest.name)
        return home, MigrationContext(
            home=home, guest=guest, package="p", link=None, report=report,
            extensions=FluxExtensions.none())

    def test_rollback_failure_never_masks_fault(self, device_pair):
        home, ctx = self._context(device_pair)
        flaky = _Flaky()
        with pytest.raises(RuntimeError, match="kaboom"):
            _drive(StagePipeline([flaky, _Boom()]).steps(ctx), home.clock)
        assert flaky.rolled_back
        errors = home.tracer.events("migration", "rollback-error")
        assert len(errors) == 1 and errors[0].detail["stage"] == "flaky"
        assert ctx.report.faulted_stage == "boom"

    def test_rollback_order_faulted_first_then_reverse(self, device_pair):
        _, ctx = self._context(device_pair)
        order = []

        def witness(name):
            stage = Stage()
            stage.name = name
            stage.steps = lambda c: iter(())
            stage.rollback = lambda c: order.append(name)
            return stage

        boom = _Boom()
        boom.rollback = lambda c: order.append("boom")
        pipeline = StagePipeline([witness("a"), witness("b"), boom])
        with pytest.raises(RuntimeError):
            _drive(pipeline.steps(ctx), ctx.home.clock)
        assert order == ["boom", "b", "a"]

    def test_faulted_stage_still_timed(self, device_pair):
        home, ctx = self._context(device_pair)

        slow = Stage()
        slow.name = "slow"

        def steps(c):
            yield Charge(2.5)
            raise RuntimeError("late fault")

        slow.steps = steps
        with pytest.raises(RuntimeError):
            _drive(StagePipeline([slow]).steps(ctx), home.clock)
        assert ctx.report.stages["slow"] == pytest.approx(2.5)


class InjectedFault(Exception):
    """Thrown into a migration in place of one of its yields."""


def _faulting(steps, fault_at, yields):
    """Drive ``steps`` like ``yield from``, appending every op it yields
    to ``yields``; yield number ``fault_at`` is answered by throwing
    :class:`InjectedFault` into ``steps`` instead of being run."""
    value = None
    while True:
        try:
            op = steps.send(value)
        except StopIteration as stop:
            return stop.value
        yields.append(op)
        if len(yields) - 1 == fault_at:
            steps.throw(InjectedFault(f"yield {fault_at}"))
            raise AssertionError("the migration swallowed the fault")
        value = yield op


#: The stage each yield point of a healthy migration belongs to.
YIELD_STAGES = {
    "serial": ["preparation", "checkpoint", "transfer", "restore",
               "reintegration"],
    "pipelined": ["preparation", "checkpoint", "transfer", "transfer",
                  "restore", "reintegration"],
}
MODES = {"serial": FluxExtensions.none(), "pipelined": PIPELINED}


@pytest.fixture(scope="module", params=sorted(MODES))
def booted_pair(request):
    """One booted, paired home/guest per transfer mode, every app
    installed — shared by all apps so the sweep over yields stays fast."""
    clock = SimClock()
    factory = RngFactory(3)
    home = Device(NEXUS_4, clock, factory, name="home")
    guest = Device(NEXUS_7_2013, clock, factory, name="guest")
    for spec in MIGRATABLE_APPS:
        spec.install(home)
    home.pairing_service.pair(guest)
    return request.param, home, guest


class TestAtomicityAtEveryYield:
    @pytest.mark.parametrize("spec", MIGRATABLE_APPS,
                             ids=lambda spec: spec.title)
    def test_fault_at_any_yield_rolls_back(self, booted_pair, spec):
        mode, home, guest = booted_pair
        service, package = home.migration_service, spec.package
        spec.install_and_launch(home)

        def drive(fault_at, yields):
            steps = service.migrate_steps(guest, package,
                                          extensions=MODES[mode])
            return _drive(_faulting(steps, fault_at, yields), home.clock)

        for k, stage in enumerate(YIELD_STAGES[mode]):
            with pytest.raises(InjectedFault):
                drive(k, [])
            assert service.history[-1].faulted_stage == stage
            assert package in home.running_packages()
            assert home.app_processes(package)
            assert all(proc.state.value != "frozen"
                       for proc in home.app_processes(package))
            assert guest.app_processes(package) == []
            assert package not in guest.running_packages()

        yields = []
        assert drive(None, yields).success
        assert len(yields) == len(YIELD_STAGES[mode])
        assert package in guest.running_packages()
