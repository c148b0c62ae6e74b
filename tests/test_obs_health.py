"""Fleet health plane: beacons, the shared channel, deterministic
aggregation, fault degradation, and the runtime/CLI wiring."""

import json
import random

import pytest
from hypothesis import given, settings, strategies as st

from repro.apps.registry import get_app
from repro.bench.harness import spaced_workload
from repro.core.runtime import FirstAidConfig, FirstAidRuntime
from repro.fleet import LatencyFold
from repro.obs.health import (
    LATENCY_BOUNDS,
    FleetHealthAggregator,
    HealthBeacon,
    HealthChannel,
    HealthFaultPlan,
    aggregate_store,
    health_path,
)
from repro.obs.metrics import Histogram
from repro.vm.io import OutputLog


def beacon(pid="p-0", seq=1, time_ns=1000, **kw):
    return HealthBeacon(process_id=pid, app="app", seq=seq,
                        time_ns=time_ns, **kw)


# ---------------------------------------------------------------------
# beacons
# ---------------------------------------------------------------------

def test_beacon_round_trips_through_json():
    b = beacon(failures=3, recovered=2, gave_up=1, restarts=1,
               retractions=1, rung_counts={"1": 2, "4": 1},
               patches={"k": {"triggers": 5, "validated": True,
                              "created_time_ns": 7, "diagnosed": 1}})
    again = HealthBeacon.from_json(b.to_json())
    assert again == b


def test_beacon_rejects_garbage():
    with pytest.raises(ValueError):
        HealthBeacon.from_json("not a dict")
    with pytest.raises(ValueError):
        HealthBeacon.from_json({"format": "something-else"})
    with pytest.raises(ValueError):
        HealthBeacon.from_json({"format": "first-aid-health-beacon",
                                "version": 99})
    missing = beacon().to_json()
    del missing["process_id"]
    with pytest.raises(ValueError):
        HealthBeacon.from_json(missing)
    scrambled = beacon().to_json()
    scrambled["recovery_ns"] = {"bounds": [1], "counts": [1]}
    with pytest.raises(ValueError):
        HealthBeacon.from_json(scrambled)


def test_beacon_defaults_carry_empty_histograms():
    b = beacon()
    assert b.recovery_ns["total"] == 0
    assert b.latency_ns["counts"]


# ---------------------------------------------------------------------
# the channel
# ---------------------------------------------------------------------

def test_channel_publish_and_reload(tmp_path):
    path = str(tmp_path / "store.json.health")
    channel = HealthChannel(path, "app")
    channel.publish(beacon(seq=1))
    channel.publish(beacon(pid="p-1", seq=1))
    state = HealthChannel(path, "app").load()
    assert sorted(state.beacons) == ["p-0", "p-1"]
    assert state.generation == 2


def test_channel_merge_keeps_highest_seq(tmp_path):
    path = str(tmp_path / "h")
    channel = HealthChannel(path, "app")
    channel.publish(beacon(seq=5, time_ns=5000, failures=5))
    channel.publish(beacon(seq=2, time_ns=2000, failures=2))  # replay
    state = channel.load()
    assert state.beacons["p-0"]["seq"] == 5
    assert state.beacons["p-0"]["failures"] == 5


def test_channel_retire_tombstones_until_republish(tmp_path):
    channel = HealthChannel(str(tmp_path / "h"), "app")
    channel.publish(beacon(seq=1))
    channel.retire(["p-0"])
    state = channel.load()
    assert state.beacons == {}
    assert "p-0" in state.retired
    assert state.live_beacons() == {}
    # The process came back: publishing clears the tombstone.
    channel.publish(beacon(seq=2))
    state = channel.load()
    assert "p-0" not in state.retired
    assert state.live_beacons()["p-0"]["seq"] == 2


def test_channel_quarantines_corruption_and_uses_backup(tmp_path):
    path = str(tmp_path / "h")
    channel = HealthChannel(path, "app")
    channel.publish(beacon(seq=1))
    channel.publish(beacon(seq=2))
    with open(path, "w") as fh:
        fh.write('{"torn')
    state = channel.load()
    assert channel.quarantined == 1
    assert channel.recovered_from_backup == 1
    assert state.beacons["p-0"]["seq"] == 2


def test_stale_beacon_fault_loses_to_fresher_publish(tmp_path):
    plan = HealthFaultPlan()
    channel = HealthChannel(str(tmp_path / "h"), "app", faults=plan)
    channel.publish(beacon(seq=3, failures=3))
    plan.arm("stale_beacon")
    channel.publish(beacon(seq=4, failures=4))  # lands rolled back
    state = channel.load()
    assert plan.fired["stale_beacon"] == 1
    # The stale replay (seq forced to 0) must not overwrite seq 3.
    assert state.beacons["p-0"]["seq"] == 3
    assert state.beacons["p-0"]["failures"] == 3


# ---------------------------------------------------------------------
# aggregation
# ---------------------------------------------------------------------

def _fleet_beacons():
    return [
        beacon(pid="leader-0", seq=3, time_ns=9000, reason="halt",
               failures=1, recovered=1,
               rung_counts={"1": 1},
               patches={"k1": {"triggers": 4, "validated": True,
                               "created_time_ns": 500,
                               "diagnosed": 1}}),
        beacon(pid="follower-1", seq=2, time_ns=8000, reason="halt",
               patches={"k1": {"triggers": 6, "validated": True,
                               "created_time_ns": 500,
                               "diagnosed": 0}}),
        beacon(pid="follower-2", seq=2, time_ns=8000, reason="died",
               gave_up=1, failures=1),
    ]


def test_aggregator_order_invariant_byte_identical():
    beacons = _fleet_beacons()
    rendered = set()
    rng = random.Random(7)
    for _ in range(6):
        rng.shuffle(beacons)
        agg = FleetHealthAggregator()
        for b in beacons:
            agg.add(b)
        report = agg.report()
        rendered.add(json.dumps(report.to_json(), sort_keys=True)
                     + report.render())
    assert len(rendered) == 1


def test_aggregator_report_content():
    agg = FleetHealthAggregator()
    for b in _fleet_beacons():
        agg.add(b)
    report = agg.report()
    assert report.program == "app"
    assert report.fleet["processes"] == 3
    assert report.fleet["survived"] == 2
    assert report.fleet["failures"] == 2
    [patch] = report.patches
    assert patch["key"] == "k1"
    assert patch["triggers_total"] == 10
    assert patch["processes"] == 2
    assert patch["validated"] is True
    assert patch["diagnosed_in"] == 1
    assert patch["prevented_in"] == 1
    assert patch["post_patch_failures"] == 0
    assert patch["time_to_first_patch_ns"] == 500


def test_aggregator_keeps_highest_seq_per_process():
    agg = FleetHealthAggregator()
    agg.add(beacon(seq=2, failures=2))
    agg.add(beacon(seq=1, failures=1))  # stale duplicate
    [row] = agg.report().processes
    assert row["failures"] == 2


def test_aggregator_counts_garbage_never_raises():
    events = []

    class Log:
        def emit(self, t, kind, **data):
            events.append((kind, data))

    agg = FleetHealthAggregator(events=Log())
    assert agg.add_payload({"format": "junk"}) is False
    assert agg.add_payload(["not", "a", "dict"]) is False
    agg.add(beacon())
    report = agg.report()
    assert report.beacon_errors == 2
    assert report.fleet["processes"] == 1
    assert all(kind == "health.error" for kind, _ in events)


# ---------------------------------------------------------------------
# runtime wiring
# ---------------------------------------------------------------------

@pytest.fixture(scope="module")
def bc_session(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("health")
    store = str(tmp / "store.json")
    app = get_app("bc")
    wl = spaced_workload(app, triggers=2, seed=42)
    runtime = FirstAidRuntime(
        app.program(), input_tokens=wl.tokens,
        config=FirstAidConfig(store_path=store,
                              process_label="leader-0"))
    session = runtime.run()
    runtime.close()
    return store, runtime, session


def test_runtime_publishes_exit_beacon(bc_session):
    store, runtime, session = bc_session
    state = HealthChannel(health_path(store), "bc").load()
    payload = state.live_beacons()["leader-0"]
    b = HealthBeacon.from_json(payload)
    assert b.reason == session.reason
    assert b.failures == len(session.recoveries)
    assert b.recovered == sum(1 for r in session.recoveries
                              if r.succeeded)
    assert b.rung_counts  # the resolving rungs are visible
    assert b.triggers_total > 0
    assert b.recovery_ns["total"] == len(session.recoveries)
    assert b.latency_ns["total"] > 0


def test_aggregate_store_renders_the_session(bc_session):
    store, runtime, session = bc_session
    report = aggregate_store(store)
    assert report.fleet["processes"] == 1
    assert report.fleet["survived"] == 1
    assert report.patches
    assert all(p["time_to_first_patch_ns"] > 0 for p in report.patches)
    text = report.render()
    assert "leader-0" in text
    assert "per-patch:" in text


def test_torn_health_write_degrades_and_retries(tmp_path):
    store = str(tmp_path / "store.json")
    plan = HealthFaultPlan()
    plan.arm("torn_write")
    app = get_app("bc")
    wl = spaced_workload(app, triggers=1, seed=42)
    runtime = FirstAidRuntime(
        app.program(), input_tokens=wl.tokens,
        config=FirstAidConfig(store_path=store,
                              process_label="t-0",
                              health_faults=plan))
    session = runtime.run()
    runtime.close()
    assert session.reason == "halt"
    assert plan.fired["torn_write"] == 1
    errors = [e for e in runtime.events if e.kind == "health.error"]
    assert errors  # the fault surfaced as degradation...
    report = aggregate_store(store)  # ...and the beacon still landed
    assert [r["process_id"] for r in report.processes] == ["t-0"]


# ---------------------------------------------------------------------
# incremental latency histogram
# ---------------------------------------------------------------------

def scratch_latency(log):
    """The beacon's latency histogram built over the whole log."""
    hist = Histogram("latency_ns", LATENCY_BOUNDS)
    prev = 0
    for time_ns, _ in log.entries():
        hist.observe(time_ns - prev)
        prev = time_ns
    return hist.to_snapshot()


#: Output gaps spread over every latency bucket, overflow included.
_gap = st.builds(lambda digit, exp: digit * 10 ** exp,
                 st.integers(min_value=0, max_value=9),
                 st.integers(min_value=3, max_value=10))
_log_op = st.one_of(
    st.tuples(st.just("emit"), st.lists(_gap, max_size=6)),
    st.tuples(st.just("restore"), st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("restart"), st.integers(min_value=0, max_value=8)),
    st.tuples(st.just("beacon"), st.none()),
)


@settings(max_examples=300, deadline=None)
@given(st.lists(_log_op, max_size=40))
def test_latency_fold_matches_from_scratch(ops):
    """Emits, restores (rollback truncation, then re-emission of the
    same or different entries) and restarts (a fresh log, preloaded
    with a prefix of the old one, as a re-execution task's is): every
    fold equals the histogram built over the whole log."""
    log, fold = OutputLog(), LatencyFold()
    for kind, arg in ops + [("beacon", None)]:
        if kind == "emit":
            now = log.entries()[-1][0] if len(log) else 0
            for delta in arg:
                now += delta
                log.emit(now, delta & 0xFF)
        elif kind == "restore":     # roll back ``arg`` entries
            log.restore(max(len(log) - arg, 0))
        elif kind == "restart":     # keep all but the last ``arg``
            fresh = OutputLog()
            fresh.preload(log.entries()[:max(len(log) - arg, 0)])
            log = fresh
        else:
            assert fold.fold(log).to_snapshot() == scratch_latency(log)


def test_latency_fold_starts_over_below_the_mark():
    """A rollback below the folded mark that re-emits past it, and a
    restart whose new log repeats the old one's entries, both rebuild;
    a rollback above the mark only extends."""
    log, fold = OutputLog(), LatencyFold()
    for ms in (5, 6, 7, 8):
        log.emit(ms * 10 ** 6, 0)
    assert fold.fold(log).to_snapshot() == scratch_latency(log)
    log.restore(1)
    for ms in (50, 60, 70, 80):
        log.emit(ms * 10 ** 6, 0)
    assert fold.fold(log).to_snapshot() == scratch_latency(log)
    restarted = OutputLog()
    restarted.preload(log.entries()[:3])
    restarted.emit(10 ** 9, 0)
    restarted.emit(2 * 10 ** 9, 0)
    assert fold.fold(restarted).to_snapshot() == scratch_latency(restarted)
    restarted.emit(3 * 10 ** 9, 0)
    restarted.emit(4 * 10 ** 9, 0)
    restarted.restore(6)
    restarted.emit(5 * 10 ** 9, 0)
    hist = fold.fold(restarted)
    assert fold.count == 7
    assert hist.to_snapshot() == scratch_latency(restarted)


def test_runtime_beacons_fold_latency_like_from_scratch(tmp_path,
                                                      monkeypatch):
    """A session that beacons at every checkpoint boundary and rolls
    back for its recoveries: every beacon's histogram equals the one
    built over the whole output log at that moment, and the fold both
    extended a prefix and started over after a rollback."""
    calls = []
    fold = LatencyFold.fold
    reset = LatencyFold._reset

    def checked(self, log):
        hist = fold(self, log)
        assert hist.to_snapshot() == scratch_latency(log)
        calls.append("fold")
        return hist

    def counted(self):
        calls.append("reset")
        reset(self)

    monkeypatch.setattr(LatencyFold, "fold", checked)
    monkeypatch.setattr(LatencyFold, "_reset", counted)
    app = get_app("apache")
    wl = spaced_workload(app, triggers=2, seed=42)
    runtime = FirstAidRuntime(
        app.program(), input_tokens=wl.tokens,
        config=FirstAidConfig(store_path=str(tmp_path / "store.json"),
                              process_label="leader-0",
                              store_refresh_boundaries=1))
    session = runtime.run()
    runtime.close()
    assert session.recoveries
    assert calls.count("fold") > 2
    # One reset at construction, at least one after a rollback.
    assert calls.count("reset") >= 2
    state = HealthChannel(health_path(str(tmp_path / "store.json")),
                          "apache").load()
    b = HealthBeacon.from_json(state.live_beacons()["leader-0"])
    assert b.latency_ns == scratch_latency(runtime.process.output)
