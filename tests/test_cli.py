"""The flux-sim command-line front end."""

import pytest

from repro.cli import main


class TestListing:
    def test_devices(self, capsys):
        assert main(["devices"]) == 0
        out = capsys.readouterr().out
        assert "Nexus 7 (2013)" in out and "Adreno 320" in out

    def test_apps(self, capsys):
        assert main(["apps"]) == 0
        out = capsys.readouterr().out
        assert "Candy Crush Saga" in out and "com.whatsapp" in out


class TestMigrate:
    def test_successful_migration(self, capsys):
        assert main(["migrate", "--app", "WhatsApp"]) == 0
        out = capsys.readouterr().out
        assert "migrated WhatsApp" in out
        assert "transfer" in out and "TOTAL" in out

    def test_substring_match(self, capsys):
        assert main(["migrate", "--app", "zedge"]) == 0
        assert "migrated ZEDGE" in capsys.readouterr().out

    def test_refusal_exits_nonzero(self, capsys):
        assert main(["migrate", "--app", "Facebook"]) == 1
        out = capsys.readouterr().out
        assert "REFUSED" in out and "multi-process" in out

    def test_extensions_lift_refusal(self, capsys):
        assert main(["migrate", "--app", "Facebook",
                     "--extensions", "multi_process"]) == 0
        assert "migrated Facebook" in capsys.readouterr().out

    def test_unknown_app(self):
        with pytest.raises(SystemExit):
            main(["migrate", "--app", "Angry Birds"])

    def test_unknown_extension(self):
        with pytest.raises(SystemExit):
            main(["migrate", "--app", "WhatsApp",
                  "--extensions", "teleportation"])

    def test_gps_device_pair_flags(self, capsys):
        assert main(["migrate", "--app", "GroupOn", "--home", "nexus4",
                     "--guest", "nexus7"]) == 0
        out = capsys.readouterr().out
        assert "adapted" in out   # GPS -> network fallback noted


class TestPair:
    def test_pairing_numbers(self, capsys):
        assert main(["pair", "--home", "nexus7",
                     "--guest", "nexus7_2013"]) == 0
        out = capsys.readouterr().out
        assert "215.0 MB" in out
        assert "123.0 MB" in out
        assert "56.0 MB" in out or "55.9 MB" in out


class TestExperiments:
    def test_single_experiment(self, capsys):
        assert main(["experiments", "fig17"]) == 0
        assert "CDF(1 MB)" in capsys.readouterr().out

    def test_unknown_experiment(self, capsys):
        assert main(["experiments", "fig99"]) == 2


class TestTimelineAndInterface:
    def test_timeline_rendering(self, capsys):
        assert main(["migrate", "--app", "Netflix", "--timeline"]) == 0
        out = capsys.readouterr().out
        assert "user-perceived" in out and "|" in out

    def test_interface_subcommand(self, capsys):
        assert main(["interface", "alarm"]) == 0
        out = capsys.readouterr().out
        assert "@replayproxy flux.recordreplay.Proxies.alarmMgrSet" in out

    def test_interface_unknown_service(self):
        import pytest
        with pytest.raises(SystemExit):
            main(["interface", "teleporter"])


class TestTimelineModule:
    def test_sweep_strip(self):
        from repro.core.migration.timeline import render_sweep_strip
        from repro.experiments.harness import run_pair
        from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
        from repro.apps import app_by_title
        reports = run_pair(NEXUS_4, NEXUS_7_2013,
                           [app_by_title("ZEDGE"), app_by_title("eBay")],
                           seed=3).reports
        strip = render_sweep_strip(list(reports.values()))
        assert "legend" in strip
        assert strip.count("|") >= 4

    def test_empty_inputs(self):
        from repro.core.migration.timeline import render_sweep_strip
        assert "no reports" in render_sweep_strip([])


class TestFaultInjectionFlags:
    def test_link_drop_rolls_back(self, capsys):
        assert main(["migrate", "--app", "WhatsApp",
                     "--drop-link-after-bytes", "1000000"]) == 1
        out = capsys.readouterr().out
        assert "FAULTED in transfer stage" in out
        assert "link-down" in out
        assert "still running" in out and "guest processes: 0" in out

    def test_restore_fault_rolls_back(self, capsys):
        assert main(["migrate", "--app", "WhatsApp",
                     "--fail-restore-after", "3"]) == 1
        out = capsys.readouterr().out
        assert "FAULTED in restore stage" in out
        assert "restore-failed" in out and "guest processes: 0" in out


class TestTraceExport:
    def test_trace_out_nests_five_stages(self, capsys, tmp_path):
        import json

        from repro.core.migration.migration import STAGES

        path = tmp_path / "trace.json"
        assert main(["migrate", "--app", "WhatsApp",
                     "--trace-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote Chrome trace to {path}" in out
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        [migration] = [e for e in events if e["cat"] == "migration"]
        stages = [e for e in events if e["cat"] == "stage"]
        assert [e["name"] for e in stages] == list(STAGES)
        # Stage intervals nest inside the migration span.
        span_end = migration["ts"] + migration["dur"]
        for stage in stages:
            assert stage["ts"] >= migration["ts"]
            assert stage["ts"] + stage["dur"] <= span_end + 1e-3

    def test_trace_durations_match_report_stages(self, tmp_path):
        import json

        from repro.android.device import Device
        from repro.android.hardware.profiles import NEXUS_4, NEXUS_7_2013
        from repro.apps import app_by_title
        from repro.sim import SimClock
        from repro.sim.rng import RngFactory

        clock = SimClock()
        factory = RngFactory(0)
        home = Device(NEXUS_4, clock, factory, name="home")
        guest = Device(NEXUS_7_2013, clock, factory, name="guest")
        spec = app_by_title("WhatsApp")
        spec.install_and_launch(home)
        home.pairing_service.pair(guest)
        report = home.migration_service.migrate(guest, spec.package)
        path = tmp_path / "trace.json"
        home.tracer.write_chrome_trace(str(path))
        doc = json.loads(path.read_text())
        durations = {e["name"]: e["dur"] for e in doc["traceEvents"]
                     if e["cat"] == "stage"}
        for stage, seconds in report.stages.items():
            assert durations[stage] == pytest.approx(seconds * 1e6,
                                                     abs=1e-2)

    def test_trace_written_on_fault_too(self, capsys, tmp_path):
        import json

        path = tmp_path / "faulted.json"
        assert main(["migrate", "--app", "WhatsApp",
                     "--drop-link-after-bytes", "1000000",
                     "--trace-out", str(path)]) == 1
        doc = json.loads(path.read_text())
        [migration] = [e for e in doc["traceEvents"]
                       if e["cat"] == "migration"]
        assert migration["args"]["faulted_stage"] == "transfer"
        names = [e["name"] for e in doc["traceEvents"]
                 if e["cat"] == "stage"]
        assert names == ["preparation", "checkpoint", "transfer"]

    def test_trace_schema_validates_per_phase(self, tmp_path):
        """Round-trip through json.load and check the required keys of
        every phase the export emits: complete spans ("X"), counters
        ("C") and the event log's instants ("i")."""
        import json

        path = tmp_path / "trace.json"
        assert main(["migrate", "--app", "WhatsApp",
                     "--trace-out", str(path)]) == 0
        with open(path, "r", encoding="utf-8") as handle:
            doc = json.load(handle)
        assert doc["displayTimeUnit"] == "ms"
        events = doc["traceEvents"]
        phases = {e["ph"] for e in events}
        assert phases == {"X", "C", "i"}
        for event in events:
            for key in ("name", "cat", "ph", "ts", "pid", "tid"):
                assert key in event, (event["ph"], key)
            assert isinstance(event["ts"], (int, float))
            if event["ph"] == "X":
                assert "dur" in event and event["dur"] >= 0
            elif event["ph"] == "C":
                assert "args" in event
                assert all(isinstance(v, (int, float))
                           for v in event["args"].values())
            elif event["ph"] == "i":
                assert event["s"] == "t"   # thread-scoped instant
                assert event["cat"] == "event"
                assert "seq" in event["args"]
                assert "device" in event["args"]

    def test_trace_instants_interleave_with_spans(self, tmp_path):
        import json

        path = tmp_path / "trace.json"
        assert main(["migrate", "--app", "WhatsApp",
                     "--trace-out", str(path)]) == 0
        doc = json.loads(path.read_text())
        events = doc["traceEvents"]
        [migration] = [e for e in events if e["cat"] == "migration"]
        instants = [e for e in events if e["ph"] == "i"]
        span_end = migration["ts"] + migration["dur"]
        inside = [i for i in instants
                  if migration["ts"] <= i["ts"] <= span_end + 1e-3]
        assert inside, "no event instants inside the migration span"
        kinds = {i["name"] for i in inside}
        assert "stage.start" in kinds and "migration.done" in kinds


class TestEventsExport:
    def test_migrate_events_out(self, capsys, tmp_path):
        from repro.sim.events import read_jsonl

        path = tmp_path / "events.jsonl"
        assert main(["migrate", "--app", "WhatsApp",
                     "--events-out", str(path)]) == 0
        out = capsys.readouterr().out
        assert f"wrote" in out and str(path) in out
        events = read_jsonl(str(path))
        assert events
        kinds = [e["kind"] for e in events]
        assert "migration.start" in kinds and "migration.done" in kinds
        assert {e["device"] for e in events} == {"home", "guest"}
        # The merged stream is causally ordered.
        keys = [(e["t"], e["device"], e["seq"]) for e in events]
        assert keys == sorted(keys)

    def test_migrate_events_out_on_fault(self, capsys, tmp_path):
        from repro.sim.events import read_jsonl

        path = tmp_path / "events.jsonl"
        assert main(["migrate", "--app", "WhatsApp",
                     "--drop-link-after-bytes", "1000000",
                     "--events-out", str(path)]) == 1
        kinds = [e["kind"] for e in read_jsonl(str(path))]
        assert "link.fault" in kinds
        assert "stage.fault" in kinds
        assert "migration.rolled_back" in kinds

    def test_sweep_events_out(self, capsys, tmp_path):
        from repro.sim.events import read_jsonl

        path = tmp_path / "sweep_events.jsonl"
        assert main(["sweep", "--events-out", str(path)]) == 0
        events = read_jsonl(str(path))
        assert events
        assert all("pair" in e for e in events)
        assert len({e["pair"] for e in events}) == 4


class TestScenario:
    def test_default_demo_queues_two_concurrent_migrations(self, capsys):
        assert main(["scenario"]) == 0
        out = capsys.readouterr().out
        assert "2 devices, 2 sessions" in out
        assert out.count("MIGRATED") == 2

    def test_explicit_routes_and_stagger(self, capsys):
        assert main(["scenario",
                     "--device", "h1=nexus4", "--device", "g1=nexus7_2013",
                     "--device", "h2=nexus4", "--device", "g2=nexus7_2013",
                     "--migrate", "h1:g1:bubble",
                     "--migrate", "h2:g2:bubble@0.5"]) == 0
        out = capsys.readouterr().out
        assert "h1->g1" in out and "h2->g2" in out
        assert out.count("MIGRATED") == 2

    def test_refuse_admission_exits_nonzero(self, capsys):
        assert main(["scenario", "--admission", "refuse"]) == 1
        out = capsys.readouterr().out
        assert "REJECTED" in out and "already hosting" in out

    def test_telemetry_exports_and_session_explain(self, capsys, tmp_path):
        import json

        from repro.sim.events import read_jsonl

        events = tmp_path / "scenario_events.jsonl"
        metrics = tmp_path / "scenario_metrics.json"
        assert main(["scenario", "--events-out", str(events),
                     "--metrics-out", str(metrics)]) == 0
        out = capsys.readouterr().out
        document = json.loads(metrics.read_text())
        assert document["scenario"]["admission"] == "queue"
        assert len(document["scenario"]["sessions"]) == 2
        assert all(row["status"] == "migrated"
                   for row in document["scenario"]["sessions"])
        labels = [row["session"]
                  for row in document["scenario"]["sessions"]]
        stream = read_jsonl(str(events))
        assert {e["attrs"].get("session") for e in stream
                if e["kind"] == "migration.start"} == set(labels)
        # explain segments the interleaved log by session label.
        for label in labels:
            assert main(["explain", str(events),
                         "--session", label]) == 0
            explained = capsys.readouterr().out
            assert f"session={label}" in explained
            assert "SUCCEEDED" in explained

    def test_bad_specs_rejected(self):
        with pytest.raises(SystemExit):
            main(["scenario", "--device", "nexus4"])  # no NAME=
        with pytest.raises(SystemExit):
            main(["scenario", "--migrate", "home:guest"])  # no app
        with pytest.raises(SystemExit):
            main(["scenario", "--migrate", "home:guest:bubble@soon"])


class TestWorkersFlag:
    @pytest.mark.parametrize("command", ["sweep", "fleet"])
    @pytest.mark.parametrize("bad", ["abc", "0", "-3"])
    def test_bad_workers_exit_2_with_the_reason(self, command, bad, capsys):
        with pytest.raises(SystemExit) as exc:
            main([command, f"--workers={bad}"])
        assert exc.value.code == 2
        assert "'auto' or an integer >= 1" in capsys.readouterr().err
