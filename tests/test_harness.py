"""Tests for scenario files, metrics aggregation, reports, and checks."""

import gc
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrealm import cli, simnet
from crossrealm.errors import (
    ScenarioParseError,
    ScenarioValidationError,
    UnknownMetric,
)
from crossrealm.harness import (
    MetricsReport,
    Scenario,
    aggregate,
    check_acceptance,
    emit_event_log,
    emit_report,
    load_report,
    load_scenario,
    run_experiment,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from crossrealm.protocol import PHASE_COUNT, MessageKind, Role, SessionStatus, TimeoutMode
from crossrealm.simnet import Stall, records_to_csv

SMALL = Scenario(principals=2, sessions_per_principal=2, session_spread_s=5.0,
                 horizon_s=400.0, seed=5)
# every session falls to the F watchdog, and CloudB's late phase-10 answer
# is then discarded at the session handler
STALLED_AT_F = replace(SMALL, timeout_mode=TimeoutMode.localized_f(200), horizon_s=1000.0,
                       stalls=(Stall(Role.CLOUD_B, 10, 250.0),))


def small_report():
    return aggregate(simnet.run(SMALL), SMALL)


# -- scenario loading -----------------------------------------------------------

def test_empty_document_is_default_scenario(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    scenario = load_scenario(path)
    assert scenario == Scenario()
    assert scenario.principals == 1000
    assert scenario.sessions_per_principal == "mean2"
    assert scenario.timeout_mode == TimeoutMode.none()


def test_zero_principals_rejected():
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict({"principals": 0})
    assert err.value.field == "principals"


def test_unknown_field_rejected():
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict({"participants": 3})
    assert err.value.field == "participants"


def test_bad_json_reports_line(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text('{\n  "principals": ,\n}')
    with pytest.raises(ScenarioParseError) as err:
        load_scenario(path)
    assert "line 2" in str(err.value)


# malformed document -> the field its error must name
MALFORMED = [
    ({"principals": "abc"}, "principals"),
    ({"principals": 2.5}, "principals"),
    ({"sessions_per_principal": 2.5}, "sessions_per_principal"),
    ({"app_start_offset_s": [5]}, "app_start_offset_s"),
    ({"stalls": [{"role": "Nobody", "phase_index": 5, "extra_delay_s": 1.0}]}, "stalls"),
    ({"stalls": [{"role": "SAC-DB", "extra_delay_s": 1.0}]}, "stalls"),
    ({"connection": {"bogus": 1}}, "connection"),
    ({"timeout_mode": 5}, "timeout_mode"),
    ({"resources": ["R1"]}, "resources"),
    ({"resources": ["R1", "R1"]}, "resources"),
    ({"topology": {"link_counts": [["A", "SW1", 0]]}}, "topology"),
    ({"phase_request_bytes": {"1": -5}}, "phase_request_bytes"),
    ({"phase_response_bytes": {"14": 1024}}, "phase_response_bytes"),
    ({"propagation_delay_s": 0.001}, "propagation_delay_s"),  # belongs under topology
    ({"principals": 3, "network_start_offset_s": -50, "session_spread_s": 5, "horizon_s": 200},
     "network_start_offset_s"),
    # a field that repeats carries its own test id (the last item of a param)
    pytest.param({"topology": {"bogus": 1}}, "topology", id="topology-unknown-key"),
    pytest.param({"topology": {"link_counts": [["A", "F", 2]]}}, "topology",
                 id="topology-unlinked-pair"),
    pytest.param({"topology": {"propagation_delay_s": -1.0}}, "topology",
                 id="topology-negative-delay"),
    ({"principals": 2, "horizon_s": math.inf}, "horizon_s"),  # json reads Infinity
    pytest.param({"session_spread_s": math.inf}, "session_spread_s",
                 id="session_spread_s-infinite"),
    pytest.param({"app_start_offset_s": [5, math.inf]}, "app_start_offset_s",
                 id="app_start_offset_s-infinite"),
    pytest.param({"sampling_interval_s": math.inf}, "sampling_interval_s",
                 id="sampling_interval_s-infinite"),
    pytest.param({"connection": {"per_phase_service_s": math.inf}}, "connection",
                 id="connection-infinite"),
    pytest.param({"topology": {"propagation_delay_s": math.inf}}, "topology",
                 id="topology-infinite-delay"),
    pytest.param({"timeout_mode": "per-phase:inf"}, "timeout_mode", id="timeout_mode-infinite"),
    # an integer beyond a float's range: JSON reads 1 followed by 400 zeros as 10**400
    pytest.param({"principals": 2, "horizon_s": 10**400}, "horizon_s", id="horizon_s-huge"),
    pytest.param({"session_spread_s": 10**400}, "session_spread_s", id="session_spread_s-huge"),
    pytest.param({"app_start_offset_s": [5, 10**400]}, "app_start_offset_s",
                 id="app_start_offset_s-huge"),
    pytest.param({"connection": {"rtt_base_s": 10**400}}, "connection", id="connection-huge"),
    pytest.param({"topology": {"propagation_delay_s": 10**400}}, "topology",
                 id="topology-huge-delay"),
    pytest.param({"stalls": [{"role": "CloudB", "phase_index": 10, "extra_delay_s": 10**400}]},
                 "stalls", id="stalls-huge-delay"),
    pytest.param({"phase_request_bytes": {"1": 10**400}}, "phase_request_bytes",
                 id="phase_request_bytes-huge"),
]


@pytest.mark.parametrize("doc, field", MALFORMED, ids=[case[-1] for case in MALFORMED])
def test_malformed_field_named(doc, field):
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.field == field


def test_discards_and_violations_reported(tmp_path):
    report = aggregate(simnet.run(STALLED_AT_F), STALLED_AT_F)
    assert report.sessions_dropped == report.sessions_started == 4
    tree = report.metric_tree()
    assert tree["discards"] == {"SAC-SH": {"session-not-in-progress": 4}}
    assert tree["violations"] == {role.value: 0 for role in Role}
    emit_report(report, "csv", tmp_path)
    assert load_report(tmp_path)["discards"] == tree["discards"]


def test_engine_counts_a_role_discard():
    # the network delivers each phase-1 request twice; F discards the copy
    # and counts it, and the session goes on
    engine = simnet._Engine(SMALL, SMALL.seed)
    send = engine._send

    def send_phase1_twice(msg):
        send(msg)
        if msg.phase_index == 1 and msg.kind is MessageKind.REQUEST:
            send(msg)

    engine._send = send_phase1_twice
    engine.setup()
    engine.loop()
    run = engine.result()
    assert all(s.status is SessionStatus.COMPLETED for s in run.sessions.values())
    report = aggregate(run, SMALL)
    tree = report.metric_tree()
    assert tree["discards"] == {"F": {"duplicate-session": report.sessions_started}}
    assert tree["violations"] == {role.value: report.sessions_started if role is Role.F else 0
                                  for role in Role}


def test_cli_names_malformed_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"principals": 2.5}))
    assert cli.main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: principals:")


def test_cli_rejects_an_infinite_horizon(tmp_path, capsys):
    path = tmp_path / "endless.json"
    path.write_text('{"principals": 2, "horizon_s": Infinity}')
    assert cli.main(["run", "--scenario", str(path), "--out", str(tmp_path / "out")]) == 1
    assert capsys.readouterr().err.startswith("error: horizon_s:")


@pytest.mark.parametrize("command", ["validate", "run"])
def test_cli_rejects_a_huge_integer(tmp_path, capsys, command):
    path = tmp_path / "huge.json"
    path.write_text('{"principals": 2, "horizon_s": 1' + "0" * 400 + "}")
    out = ["--out", str(tmp_path)] if command == "run" else []
    assert cli.main([command, "--scenario", str(path), *out]) == 1
    assert capsys.readouterr().err.startswith("error: horizon_s:")


def test_cli_rejects_an_integer_too_long_to_read(tmp_path, capsys):
    # json refuses to convert an integer literal of more than 4300 digits
    path = tmp_path / "long.json"
    path.write_text('{"seed": ' + "7" * 5000 + "}")
    assert cli.main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: ")


def test_cli_rejects_a_bad_timeout_override(tmp_path, capsys):
    # the --timeout-mode override is held to the rule a scenario's field is
    assert cli.main(["run", "--timeout-mode", "per-phase:-5", "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith("error: timeout seconds must be positive")


def test_suppressing_stall_loads():
    # an infinite stall is how a scenario suppresses a response outright
    doc = {"stalls": [{"role": "CloudB", "phase_index": 10, "extra_delay_s": math.inf}]}
    scenario = scenario_from_dict(doc)
    assert scenario.stalls == (Stall(Role.CLOUD_B, 10, math.inf),)


def test_horizon_must_exceed_network_offset():
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict({"horizon_s": 50.0})
    assert err.value.field == "horizon_s"


def test_timeout_mode_round_trips_through_save_load(tmp_path):
    scenario = Scenario(timeout_mode=TimeoutMode.per_phase(60),
                        stalls=(Stall(Role.SAC_DB, 5, 90.0),),
                        link_counts={("A", "SW1"): 4})
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded.timeout_mode == TimeoutMode.per_phase(60)
    assert loaded.stalls == scenario.stalls
    assert loaded.link_counts == {("A", "SW1"): 4}
    # a second save/load cycle is byte-stable
    path2 = tmp_path / "again.json"
    save_scenario(loaded, path2)
    assert path.read_text().replace(str(path), "") == path2.read_text().replace(str(path2), "")


def test_default_scenario_saves_as_the_shipped_file(tmp_path):
    from pathlib import Path
    shipped = Path(__file__).parent.parent / "scenarios" / "default.json"
    save_scenario(Scenario(), tmp_path / "default.json")
    assert (tmp_path / "default.json").read_text() == shipped.read_text()
    doc = scenario_to_dict(load_scenario(shipped))
    assert json.dumps(doc) == json.dumps(scenario_to_dict(Scenario()))
    assert scenario_to_dict(scenario_from_dict(doc)) == doc


# fuzzed documents: keys from the document fields and a few unknown names, values
# arbitrary JSON whose objects use the keys of the nested objects too
FIELDS = list(scenario_to_dict(Scenario()))
KEYS = FIELDS + ["role", "phase_index", "extra_delay_s", "handshake_rtts", "rtt_base_s",
                 "per_phase_service_s", "propagation_delay_s", "link_counts", "1", "13", "14"]
JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.just(10**400)
    | st.sampled_from(["mean2", "none", "per-phase:60", "localized-f:nan", "CloudB", "A", "SW1"])
    | st.text(max_size=4),
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(st.sampled_from(KEYS), inner,
                                                                max_size=3),
    max_leaves=8)
# in-range numbers and pairs of them, so that many documents load
NUMBERS = st.integers(0, 10**6) | st.floats(0, 1e6)


@st.composite
def documents(draw):
    # start from nothing or from the full default document, then overwrite a few keys
    doc = dict(draw(st.sampled_from([{}, scenario_to_dict(Scenario())])))
    for name in draw(st.lists(st.sampled_from(FIELDS + ["participants", "bogus"]), max_size=2)):
        doc[name] = draw(JSON | NUMBERS | st.lists(NUMBERS, min_size=2, max_size=2))
    return doc


@settings(max_examples=400, deadline=None)
@given(documents())
def test_fuzzed_document_fails_cleanly_or_encodes_stably(doc):
    try:
        scenario = scenario_from_dict(doc)
    except (ScenarioValidationError, ScenarioParseError):
        return
    encoded = scenario_to_dict(scenario)
    assert scenario_to_dict(scenario_from_dict(encoded)) == encoded


def test_shipped_default_scenario_matches_defaults():
    from pathlib import Path
    shipped = Path(__file__).parent.parent / "scenarios" / "default.json"
    loaded = load_scenario(shipped)
    base = Scenario()
    # the shipped file spells out the per-phase byte maps explicitly
    assert replace(loaded, phase_request_bytes=None, phase_response_bytes=None) == base
    from crossrealm.protocol import protocol_table
    table = protocol_table()
    assert loaded.phase_request_bytes == {s.index: s.request_bytes for s in table}
    assert loaded.phase_response_bytes == {s.index: s.response_bytes for s in table}


# -- metrics ------------------------------------------------------------------------

def test_accounting_identity():
    report = small_report()
    assert report.sessions_started == (report.sessions_completed
                                       + report.sessions_dropped
                                       + report.in_flight_at_horizon)
    assert report.sessions_started == 4
    assert report.sessions_dropped == 0


def test_per_phase_means_sum_to_end_to_end():
    report = small_report()
    total = sum(report.per_phase_mean_s[k] for k in range(1, 14))
    assert total == pytest.approx(report.end_to_end_mean_s, rel=1e-6)


def test_traffic_integrates_to_total_payload():
    run = simnet.run(SMALL)
    report = aggregate(run, SMALL)
    sent_bits = sum(r.payload_bytes * 8 for r in run.records if r.kind == "send")
    integrated = sum(report.traffic_sent_bps) * report.sampling_interval_s
    assert integrated == pytest.approx(sent_bits, rel=1e-9)
    received_bits = sum(r.payload_bytes * 8 for r in run.records
                        if r.kind == "deliver" and r.payload_bytes is not None)
    integrated_rx = sum(report.traffic_received_bps) * report.sampling_interval_s
    assert integrated_rx == pytest.approx(received_bits, rel=1e-9)


def test_active_sessions_timeseries_peaks():
    report = small_report()
    assert max(report.active_sessions) >= 1
    assert report.active_sessions[0] == 0  # nothing active before the network starts


def reference_fold(run, scenario):
    """The per-record fold aggregate used before it was made allocation-free."""
    interval = scenario.sampling_interval_s
    buckets = int(math.floor(run.horizon_s / interval)) + 1
    sent = np.zeros(buckets)
    received = np.zeros(buckets)
    started = 0
    phase_req_sent = {}
    phase_durations = {k: [] for k in range(1, PHASE_COUNT + 1)}
    discards = {}
    for rec in run.records:
        b = min(int(rec.time_s / interval), buckets - 1)
        if rec.kind == "send":
            sent[b] += rec.payload_bytes * 8.0
            if rec.phase_index is not None:
                key = (rec.session_id, rec.phase_index)
                if key not in phase_req_sent:
                    phase_req_sent[key] = rec.time_s
        elif rec.kind == "deliver":
            if rec.payload_bytes is not None:
                received[b] += rec.payload_bytes * 8.0
            if rec.outcome == "phase-complete":
                t0 = phase_req_sent.get((rec.session_id, rec.phase_index))
                if t0 is not None:
                    phase_durations[rec.phase_index].append(rec.time_s - t0)
            elif rec.outcome.startswith("discarded:"):
                counts = discards.setdefault(rec.destination, {})
                why = rec.outcome[len("discarded:"):]
                counts[why] = counts.get(why, 0) + 1
        elif rec.kind == "session-start":
            started += 1
    return {
        "traffic_sent_bps": [float(x) for x in sent / interval],
        "traffic_received_bps": [float(x) for x in received / interval],
        "per_phase_mean_s": {k: float(np.mean(v)) for k, v in phase_durations.items() if v},
        "per_phase_count": {k: len(v) for k, v in phase_durations.items()},
        "discards": discards,
        "sessions_started": started,
    }


# a per-phase run whose horizon cuts it off with sessions still open
CUT_OFF = replace(SMALL, principals=6, session_spread_s=100.0, horizon_s=220.0,
                  timeout_mode=TimeoutMode.per_phase(60), stalls=(Stall(Role.SAC_DB, 5, 90.0),))


@pytest.mark.parametrize("scenario", [SMALL, STALLED_AT_F, CUT_OFF],
                         ids=["small", "stalled-at-f", "cut-off"])
def test_aggregate_matches_reference_fold(scenario):
    run = simnet.run(scenario)
    report = aggregate(run, scenario)
    expected = reference_fold(run, scenario)
    assert {name: getattr(report, name) for name in expected} == expected
    if scenario is CUT_OFF:
        assert report.horizon_exceeded and report.in_flight_at_horizon > 0
        assert report.sessions_dropped > 0


def test_aggregate_sets_off_no_older_collection():
    # the fold builds no container per record, so no collection that walks
    # the finished run's objects can start while it runs
    scenario = replace(Scenario(), principals=500)
    run = simnet.run(scenario)
    started = []

    def note(phase, info):
        if phase == "start":
            started.append(info["generation"])

    assert gc.isenabled()
    gc.collect()
    gc.callbacks.append(note)
    try:
        aggregate(run, scenario)
    finally:
        gc.callbacks.remove(note)
    assert started.count(1) == started.count(2) == 0


def test_run_experiment_matches_manual_pipeline():
    direct = run_experiment(SMALL)
    manual = aggregate(simnet.run(SMALL), SMALL)
    assert direct == manual


# -- report files ----------------------------------------------------------------------

def test_emit_report_thirteen_phase_rows(tmp_path):
    report = small_report()
    paths = emit_report(report, "csv", tmp_path)
    per_phase = (tmp_path / "per_phase.csv").read_text().splitlines()
    assert per_phase[0] == "phase_index,mean_response_s,count"
    assert len(per_phase) == 1 + 13
    assert [p.name for p in paths] == ["summary.csv", "per_phase.csv", "timeseries.csv"]


def test_csv_and_json_reports_agree(tmp_path):
    report = small_report()
    emit_report(report, "csv", tmp_path / "csv")
    emit_report(report, "json-like", tmp_path / "json")
    tree_csv = load_report(tmp_path / "csv")
    tree_json = load_report(tmp_path / "json")

    def flat(tree, prefix=""):
        out = {}
        for k, v in tree.items():
            if isinstance(v, dict):
                out.update(flat(v, f"{prefix}{k}."))
            else:
                out[f"{prefix}{k}"] = v
        return out

    fc, fj = flat(tree_csv), flat(tree_json)
    assert set(fc) == set(fj)
    for key, value in fj.items():
        if isinstance(value, float):
            assert fc[key] == pytest.approx(value, rel=1e-12), key
        else:
            assert fc[key] == value, key


def test_re_emitting_is_byte_identical(tmp_path):
    report = small_report()
    emit_report(report, "csv", tmp_path / "one")
    emit_report(report, "csv", tmp_path / "two")
    for name in ("summary.csv", "per_phase.csv", "timeseries.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


def test_event_log_file_matches_records_to_csv(tmp_path):
    run = simnet.run(STALLED_AT_F)
    blank = {r.kind for r in run.records if r.phase_index is None or r.payload_bytes is None}
    assert {"app-start", "timer-fire", "session-drop"} <= blank
    path = emit_event_log(run, tmp_path)
    assert path.read_bytes() == records_to_csv(run.records).encode()


def test_empty_run_emits_headers_only(tmp_path):
    # horizon ends before the first application start: zero sessions
    scenario = Scenario(principals=1, sessions_per_principal=1, horizon_s=106.0)
    report = run_experiment(scenario)
    assert report.sessions_started == 0
    emit_report(report, "csv", tmp_path)
    per_phase = (tmp_path / "per_phase.csv").read_text().splitlines()
    series = (tmp_path / "timeseries.csv").read_text().splitlines()
    assert per_phase == ["phase_index,mean_response_s,count"]
    assert series == ["t_s,active_sessions,traffic_sent_bps,traffic_received_bps"]
    summary = (tmp_path / "summary.csv").read_text().splitlines()
    assert "sessions.started,0" in summary


# -- acceptance checking ------------------------------------------------------------------

def tree_for_checks():
    return {
        "sessions": {"started": 2040},
        "end_to_end_s": {"mean": 58.2},
        "traffic_bps": {"peak_sent": 1.4e6},
        "max_network_delay_s": 0.0075,
    }


def test_check_within_tolerance_passes():
    verdicts = check_acceptance(tree_for_checks(), [
        {"name": "e2e", "metric": "end_to_end_s.mean", "op": "within-pct",
         "target": 60.0, "tolerance_pct": 10.0}])
    assert verdicts[0].passed
    assert verdicts[0].measured == 58.2


def test_check_hard_bound_fails_with_delta():
    verdicts = check_acceptance({"sessions": {"started": 1980}}, [
        {"name": "count", "metric": "sessions.started", "op": "gte", "target": 2000}])
    assert not verdicts[0].passed
    assert "1980" in verdicts[0].detail


def test_check_range_and_lt():
    verdicts = check_acceptance(tree_for_checks(), [
        {"metric": "traffic_bps.peak_sent", "op": "range", "lo": 0.75e6, "hi": 3.0e6},
        {"metric": "max_network_delay_s", "op": "lt", "target": 0.06},
    ])
    assert all(v.passed for v in verdicts)


def test_check_empty_expectations():
    assert check_acceptance(tree_for_checks(), []) == []


def test_check_unknown_metric():
    with pytest.raises(UnknownMetric):
        check_acceptance(tree_for_checks(), [
            {"metric": "sessions.imagined", "op": "gte", "target": 1}])


# malformed expectation entry -> the text its error must carry
MALFORMED_EXPECTATIONS = {
    "missing-target": ({"metric": "sessions.started", "op": "gte"},
                       "expectation 1 (sessions.started): missing 'target'"),
    "non-numeric-target": ({"metric": "sessions.started", "op": "gte", "target": "many"},
                           "expectation 1 (sessions.started): could not convert"),
    "entry-not-object": (["sessions.started", "gte", 1], "expectation 1 (?):"),
}


@pytest.mark.parametrize("case", MALFORMED_EXPECTATIONS)
def test_malformed_expectation_named(case):
    entry, message = MALFORMED_EXPECTATIONS[case]
    good = {"metric": "max_network_delay_s", "op": "lt", "target": 0.06}
    with pytest.raises(ScenarioParseError) as err:
        check_acceptance(tree_for_checks(), [good, entry])
    assert str(err.value).startswith(message)


@pytest.mark.parametrize("doc", [
    {"expectations": [{"metric": "sessions.started", "op": "gte", "target": "many"}]},
    {"expectations": 5},
], ids=["bad-entry", "not-a-list"])
def test_cli_check_reports_malformed_expectations(tmp_path, capsys, doc):
    emit_report(small_report(), "csv", tmp_path)
    path = tmp_path / "expect.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--report", str(tmp_path), "--expect", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_check_accepts_full_report_object():
    report = small_report()
    verdicts = check_acceptance(report, [
        {"metric": "sessions.started", "op": "gte", "target": 4},
        {"metric": "per_phase_s.5.mean", "op": "within-pct", "target": 5.0,
         "tolerance_pct": 15.0},
    ])
    assert all(v.passed for v in verdicts)
