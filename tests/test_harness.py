"""Tests for scenario files, metrics aggregation, reports, and checks."""

import dataclasses
import gc
import hashlib
import json
import math
import os
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from itertools import accumulate
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossrealm import cli, simnet
from crossrealm.errors import (
    ScenarioParseError,
    ScenarioValidationError,
    UnknownMetric,
)
from crossrealm.harness import (
    MAX_BUCKETS,
    MAX_SESSIONS,
    MetricsReport,
    Scenario,
    aggregate,
    check_acceptance,
    emit_event_log,
    emit_report,
    load_report,
    load_scenario,
    percentile,
    run_experiment,
    save_scenario,
    scenario_from_dict,
    scenario_to_dict,
)
from crossrealm.protocol import (
    PHASE_COUNT,
    MessageKind,
    Role,
    SessionStatus,
    TimeoutMode,
    phase_spec,
)
from crossrealm.simnet import Stall, Topology, records_to_csv

SMALL = Scenario(principals=2, sessions_per_principal=2, session_spread_s=5.0,
                 horizon_s=400.0, seed=5)
# every session falls to the F watchdog, and CloudB's late phase-10 answer
# is then discarded at the session handler
STALLED_AT_F = replace(SMALL, timeout_mode=TimeoutMode.localized_f(200), horizon_s=1000.0,
                       stalls=(Stall(Role.CLOUD_B, 10, 250.0),))


def small_report():
    return aggregate(simnet.run(SMALL))


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
    pytest.param({"topology": {"link_counts": [["A", "SW1", 10**400]]}}, "topology",
                 id="topology-huge-link-count"),
    pytest.param({"stalls": [{"role": "CloudB", "phase_index": 10, "extra_delay_s": 10**400}]},
                 "stalls", id="stalls-huge-delay"),
    # the Stall refuses it: only +Infinity suppresses a response
    pytest.param({"stalls": [{"role": "CloudB", "phase_index": 10, "extra_delay_s": -math.inf}]},
                 "stalls", id="stalls-minus-infinite-delay"),
    # a stall on a role that does not answer the phase would be ignored
    pytest.param({"stalls": [{"role": "A", "phase_index": 5, "extra_delay_s": 1.0}]},
                 "stalls", id="stalls-non-responder"),
    pytest.param({"stalls": [{"role": "SAC", "phase_index": 5, "extra_delay_s": 1.0}]},
                 "stalls", id="stalls-initiator"),
    # one thing named twice would keep only its last value
    pytest.param({"stalls": [{"role": "SAC-DB", "phase_index": 5, "extra_delay_s": 100.0},
                             {"role": "SAC-DB", "phase_index": 5, "extra_delay_s": 0.0}]},
                 "stalls", id="stalls-twice"),
    pytest.param({"topology": {"link_counts": [["A", "SW1", 2], ["A", "SW1", 3]]}}, "topology",
                 id="topology-link-twice"),
    pytest.param({"topology": {"link_counts": [["A", "SW1", 2], ["SW1", "A", 3]]}}, "topology",
                 id="topology-link-twice-reversed"),
    pytest.param({"phase_request_bytes": {"1": 10, "01": 20}}, "phase_request_bytes",
                 id="phase_request_bytes-twice"),
    pytest.param({"phase_request_bytes": {"1": 10**400}}, "phase_request_bytes",
                 id="phase_request_bytes-huge"),
    # aggregate would allocate horizon_s / sampling_interval_s buckets per series
    pytest.param({"principals": 1, "sampling_interval_s": 1e-300}, "sampling_interval_s",
                 id="sampling_interval_s-tiny"),
    pytest.param({"principals": 1, "sampling_interval_s": 1e-4}, "sampling_interval_s",
                 id="sampling_interval_s-millions-of-buckets"),
    # a run draws every session before its first event
    pytest.param({"principals": 1e12}, "principals", id="principals-too-many"),
    pytest.param({"principals": 10**400}, "principals", id="principals-huge"),
    pytest.param({"principals": 33334}, "principals", id="principals-mean2-over-limit"),
    pytest.param({"sessions_per_principal": 1e12}, "principals",
                 id="sessions_per_principal-too-many"),
]


@pytest.mark.parametrize("doc, field", MALFORMED, ids=[case[-1] for case in MALFORMED])
def test_malformed_field_named(doc, field):
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.field == field


def test_bucket_limit_admits_its_own_count():
    scenario = scenario_from_dict({"horizon_s": 1000.0, "sampling_interval_s": 1e-3})
    assert scenario.horizon_s / scenario.sampling_interval_s == MAX_BUCKETS


def test_session_limit_admits_its_own_count():
    # built only: a run at this size is not started
    assert scenario_from_dict({"principals": MAX_SESSIONS, "sessions_per_principal": 1})
    assert scenario_from_dict({"principals": MAX_SESSIONS // 3})  # "mean2" draws up to 3 each


# a scenario built in Python -> the field its error must name; the rules
# that span fields hold however a scenario is made
PYTHON_BUILT = {
    "horizon-before-network-start": (lambda: Scenario(principals=1, horizon_s=50.0), "horizon_s"),
    "tiny-interval": (lambda: Scenario(principals=1, sampling_interval_s=1e-300),
                      "sampling_interval_s"),
    "zero-interval": (lambda: Scenario(principals=1, sampling_interval_s=0.0),
                      "sampling_interval_s"),
    "replaced-horizon": (lambda: replace(SMALL, horizon_s=50.0), "horizon_s"),
    "too-many-principals": (lambda: Scenario(principals=10**12), "principals"),
    "too-many-sessions-each": (lambda: replace(SMALL, sessions_per_principal=10**6),
                               "principals"),
    "stall-on-a-bad-scenario": (lambda: simnet.inject_stall(
        Scenario(horizon_s=100.0), Role.SAC_DB, 5, 1.0), "horizon_s"),
    "stalls-twice": (lambda: replace(SMALL, stalls=(Stall(Role.SAC_DB, 5, 100.0),
                                                    Stall(Role.SAC_DB, 5, 0.0))), "stalls"),
    "stall-injected-twice": (lambda: simnet.inject_stall(simnet.inject_stall(
        SMALL, Role.SAC_DB, 5, 100.0), Role.SAC_DB, 5, 0.0), "stalls"),
    # each field's range is the Scenario's to check, as a document's is
    "nan-request-bytes": (lambda: Scenario(principals=1, sessions_per_principal=1,
                                           phase_request_bytes={1: math.nan}),
                          "phase_request_bytes"),
    "negative-request-bytes": (lambda: Scenario(principals=1, sessions_per_principal=1,
                                                phase_request_bytes={1: -5_000_000_000}),
                               "phase_request_bytes"),
    "response-bytes-phase-14": (lambda: replace(SMALL, phase_response_bytes={14: 1024}),
                                "phase_response_bytes"),
    "same-resources": (lambda: Scenario(resources=("R1", "R1")), "resources"),
    "inverted-app-window": (lambda: Scenario(app_start_offset_s=(10.0, 5.0)),
                            "app_start_offset_s"),
    "negative-spread": (lambda: Scenario(session_spread_s=-5.0), "session_spread_s"),
    "negative-network-start": (lambda: Scenario(network_start_offset_s=-200.0),
                               "network_start_offset_s"),
    "no-principals": (lambda: Scenario(principals=0), "principals"),
    "no-sessions-each": (lambda: Scenario(sessions_per_principal=0), "sessions_per_principal"),
    "nan-horizon": (lambda: Scenario(principals=3, horizon_s=math.nan), "horizon_s"),
    # and each field's type: a count is an int, a time a number
    "fractional-principals": (lambda: Scenario(principals=2.5, sessions_per_principal=1),
                              "principals"),
    "text-principals": (lambda: Scenario(principals="3"), "principals"),
    "bool-principals": (lambda: Scenario(principals=True), "principals"),
    "fractional-sessions-each": (lambda: replace(SMALL, sessions_per_principal=1.5),
                                 "sessions_per_principal"),
    "text-horizon": (lambda: Scenario(horizon_s="800"), "horizon_s"),
    "fractional-request-bytes": (lambda: Scenario(principals=1, sessions_per_principal=1,
                                                  phase_request_bytes={1: 2.5}),
                                 "phase_request_bytes"),
    "bool-response-bytes": (lambda: replace(SMALL, phase_response_bytes={1: True}),
                            "phase_response_bytes"),
    "fractional-seed": (lambda: Scenario(principals=1, seed=2.5), "seed"),
    "number-resources": (lambda: Scenario(principals=1, sessions_per_principal=1,
                                          resources=(1, 2)), "resources"),
    "bool-spread": (lambda: Scenario(session_spread_s=True), "session_spread_s"),
    "huge-int-spread": (lambda: Scenario(session_spread_s=10**400), "session_spread_s"),
}


@pytest.mark.parametrize("case", PYTHON_BUILT)
def test_python_built_scenario_checked(case):
    build, field = PYTHON_BUILT[case]
    with pytest.raises(ScenarioValidationError) as err:
        build()
    assert err.value.field == field


# values of the wrong type, size or range for most fields, by name
ODD_VALUES = {
    "none": None, "text": "x", "zero": 0, "one": 1, "fraction": 1.5, "bool": True,
    "empty-list": [], "empty-dict": {}, "int-tuple": (1,), "text-tuple": ("a",),
    "text-keyed-dict": {"a": 1}, "text-valued-dict": {1: "a"}, "object": object(),
    "nan": math.nan, "huge-int": 10**400, "minus-one": -1,
}


@pytest.mark.parametrize("value", ODD_VALUES)
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Scenario)])
def test_every_field_refuses_or_runs_an_odd_value(field, value):
    # a field added with no type rule lets a raw error out of here
    changes = {"principals": 1, "sessions_per_principal": 1, field: ODD_VALUES[value]}
    try:
        scenario = Scenario(**changes)
    except ScenarioValidationError as err:
        assert err.field == field
        return
    run_experiment(scenario)


def test_discards_and_violations_reported(tmp_path):
    report = aggregate(simnet.run(STALLED_AT_F))
    assert report["sessions.dropped"] == report["sessions.started"] == 4
    assert report.tree["discards"] == {"SAC-SH": {"session-not-in-progress": 4}}
    assert report.tree["violations"] == {role.value: 0 for role in Role}
    emit_report(report, "csv", tmp_path)
    assert load_report(tmp_path)["discards"] == report.tree["discards"]


def test_engine_counts_a_role_discard():
    # the network delivers each phase-1 request twice; F discards the copy
    # and counts it, and the session goes on
    engine = simnet._Engine(SMALL)
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
    report = aggregate(run)
    started = report["sessions.started"]
    assert report.tree["discards"] == {"F": {"duplicate-session": started}}
    assert report.tree["violations"] == {role.value: started if role is Role.F else 0
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


def test_cli_rejects_too_many_sessions(tmp_path, capsys):
    path = tmp_path / "crowd.json"
    path.write_text('{"principals": 1e12}')
    assert cli.main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: principals:")


@pytest.mark.parametrize("under_a_file", [False, True], ids=["a-file", "under-a-file"])
def test_cli_refuses_an_out_path_that_cannot_be_a_directory(tmp_path, capsys, monkeypatch,
                                                           under_a_file):
    # refused before the run, naming the path, as an error rather than a traceback
    taken = tmp_path / "taken"
    taken.write_text("")
    out = taken / "report" if under_a_file else taken
    monkeypatch.setattr(simnet, "run", lambda scenario: pytest.fail("the run started"))
    assert cli.main(["run", "--out", str(out)]) == 1
    assert capsys.readouterr().err.startswith(f"error: out: {out}: ")


def test_cli_names_a_report_file_it_cannot_write(tmp_path, capsys):
    # a directory where the event log goes: the run's reports fail to write
    (tmp_path / "events.csv").mkdir()
    save_scenario(SMALL, tmp_path / "scenario.json")
    assert cli.main(["run", "--scenario", str(tmp_path / "scenario.json"),
                     "--out", str(tmp_path)]) == 1
    assert capsys.readouterr().err.startswith(f"error: out: {tmp_path / 'events.csv'}: ")


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
                        topology=Topology(link_counts={("A", "SW1"): 4}))
    path = tmp_path / "scenario.json"
    save_scenario(scenario, path)
    loaded = load_scenario(path)
    assert loaded.timeout_mode == TimeoutMode.per_phase(60)
    assert loaded.stalls == scenario.stalls
    assert loaded.topology == scenario.topology
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


# a small scenario's numeric and pair fields replaced by arbitrary values:
# the floats include NaN, the infinities and negatives
FLOATS = st.floats()
RESOURCES = st.sampled_from(["R1", "R2"])
REPLACEMENTS = {
    "principals": st.integers(-2, 10**6),
    "sessions_per_principal": st.integers(-2, 10**6),
    "resources": st.tuples(RESOURCES, RESOURCES),
    "network_start_offset_s": FLOATS,
    "app_start_offset_s": st.tuples(FLOATS, FLOATS),
    "session_spread_s": FLOATS,
    "horizon_s": FLOATS,
    "sampling_interval_s": FLOATS,
    "phase_request_bytes": st.dictionaries(st.integers(-1, 15), st.integers(-2, 10**400),
                                           max_size=2),
}


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(list(REPLACEMENTS)), min_size=1, max_size=2, unique=True)
       .flatmap(lambda names: st.fixed_dictionaries({n: REPLACEMENTS[n] for n in names})))
def test_python_built_and_document_scenarios_agree(changes):
    # a scenario built in Python obeys the rules a document does: its own
    # document loads, and encodes as it does
    try:
        scenario = replace(SMALL, **changes)
    except ScenarioValidationError:
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
    sessions = report.tree["sessions"]
    assert sessions["started"] == (sessions["completed"] + sessions["dropped"]
                                   + sessions["in_flight_at_horizon"])
    assert sessions["started"] == 4
    assert sessions["dropped"] == 0


def test_per_phase_means_sum_to_end_to_end():
    report = small_report()
    total = sum(report[f"per_phase_s.{k}.mean"] for k in range(1, 14))
    assert total == pytest.approx(report["end_to_end_s.mean"], rel=1e-6)


def test_traffic_integrates_to_total_payload():
    run = simnet.run(SMALL)
    report = aggregate(run)
    sent_bits = sum(r.payload_bytes * 8 for r in run.records if r.kind == "send")
    integrated = sum(report.traffic_sent_bps) * report["sampling_interval_s"]
    assert integrated == pytest.approx(sent_bits, rel=1e-9)
    received_bits = sum(r.payload_bytes * 8 for r in run.records
                        if r.kind == "deliver" and r.payload_bytes is not None)
    integrated_rx = sum(report.traffic_received_bps) * report["sampling_interval_s"]
    assert integrated_rx == pytest.approx(received_bits, rel=1e-9)


def test_active_sessions_timeseries_peaks():
    report = small_report()
    assert max(report.active_sessions) >= 1
    assert report.active_sessions[0] == 0  # nothing active before the network starts


@pytest.mark.parametrize("q", [0, 50, 90, 100])
def test_percentile_of_one_value_is_that_value(q):
    assert percentile([2.5], q) == 2.5


@pytest.mark.parametrize("q, expected", [(0, 1.0), (25, 1.5), (50, 2.0), (100, 3.0)])
def test_percentile_interpolates_between_two_values(q, expected):
    assert percentile([1.0, 3.0], q) == expected


def test_percentile_ends_are_the_extremes():
    ordered = [-4.0, 0.1, 0.2, 7.5, 9.0]
    assert percentile(ordered, 0) == -4.0
    assert percentile(ordered, 50) == 0.2
    assert percentile(ordered, 100) == 9.0


def test_percentile_at_half_a_rank_interpolates_from_the_upper_neighbour():
    # 0.1 + (0.7 - 0.1) * 0.5 rounds to 0.4; 0.7 - (0.7 - 0.1) * 0.5 does not
    assert percentile([0.1, 0.7], 50) == 0.39999999999999997
    assert percentile([0.0, 0.1, 0.7, 1.0], 50) == 0.39999999999999997


def test_percentile_of_ties_is_the_tied_value():
    ordered = [1.0, 2.0, 2.0, 2.0, 2.0, 3.0]
    assert {percentile(ordered, q) for q in (25, 40, 50, 60, 75)} == {2.0}
    assert percentile([5.0] * 7, 99) == 5.0


def reference_fold(run):
    """The per-record fold aggregate used before it was made allocation-free,
    and its reading of the final session states from before it folded the
    log alone: the two traffic series, the active-session series, and the
    sessions, end-to-end, per-phase and discard entries of the metric tree."""
    interval = run.scenario.sampling_interval_s
    buckets = int(math.floor(run.scenario.horizon_s / interval)) + 1
    sent = [0.0] * buckets
    received = [0.0] * buckets
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
    per_phase = {str(k): {"mean": math.fsum(v) / len(v) if v else None, "count": len(v)}
                 for k, v in phase_durations.items()}

    completed = [s for s in run.sessions.values() if s.status is SessionStatus.COMPLETED]
    dropped = [s for s in run.sessions.values() if s.status is SessionStatus.DROPPED]
    durations = sorted(s.ended_at - s.started_at for s in completed)
    mean = p50 = p90 = p99 = None
    if durations:
        mean, p50, p90, p99 = (math.fsum(durations) / len(durations), percentile(durations, 50),
                               percentile(durations, 90), percentile(durations, 99))
    # a session is active from its start bucket to its end bucket: it steps
    # the count up at the first and down after the last, and the running sum
    # of the steps is the count (every session starts within the horizon)
    steps = [0] * (buckets + 1)
    for s in run.sessions.values():
        end = s.ended_at if s.ended_at is not None else run.scenario.horizon_s
        steps[int(s.started_at / interval)] += 1
        steps[min(int(end / interval), buckets - 1) + 1] -= 1
    sessions = {
        "started": started,
        "completed": len(completed),
        "dropped": len(dropped),
        "in_flight_at_horizon": started - len(completed) - len(dropped),
        "dropped_by_reason": dict(Counter(s.drop_reason for s in dropped)),
    }
    end_to_end = {"mean": mean, "p50": p50, "p90": p90, "p99": p99, "count": len(durations)}
    return ([x / interval for x in sent], [x / interval for x in received],
            list(accumulate(steps[:buckets])), sessions, end_to_end, per_phase, discards)


def folded(report):
    """What reference_fold computes, as the report holds it."""
    return (report.traffic_sent_bps, report.traffic_received_bps, report.active_sessions,
            report.tree["sessions"], report.tree["end_to_end_s"], report.tree["per_phase_s"],
            report.tree["discards"])


# a per-phase run whose horizon cuts it off with sessions still open
CUT_OFF = replace(SMALL, principals=6, session_spread_s=100.0, horizon_s=220.0,
                  timeout_mode=TimeoutMode.per_phase(60), stalls=(Stall(Role.SAC_DB, 5, 90.0),))


@pytest.mark.parametrize("scenario", [SMALL, STALLED_AT_F, CUT_OFF],
                         ids=["small", "stalled-at-f", "cut-off"])
def test_aggregate_matches_reference_fold(scenario):
    run = simnet.run(scenario)
    report = aggregate(run)
    assert folded(report) == reference_fold(run)
    if scenario is CUT_OFF:
        assert report["horizon_exceeded"] and report["sessions.in_flight_at_horizon"] > 0
        assert report["sessions.dropped"] > 0


_MODES = st.sampled_from([TimeoutMode.none(), TimeoutMode.per_phase(60),
                          TimeoutMode.per_phase(8), TimeoutMode.localized_f(200),
                          TimeoutMode.localized_f(40)])
# phase -> extra delay of the response stall by the phase's responder; inf suppresses it
_STALLS = st.dictionaries(st.integers(1, PHASE_COUNT),
                          st.one_of(st.floats(0.0, 300.0), st.just(math.inf)), max_size=3)
_SIZES = st.none() | st.dictionaries(st.integers(1, PHASE_COUNT), st.integers(0, 10**6),
                                     max_size=3)


@settings(max_examples=20, deadline=None)
@given(principals=st.integers(1, 4), mode=_MODES, stalls=_STALLS, request_bytes=_SIZES,
       response_bytes=_SIZES, horizon=st.sampled_from([140.0, 200.0, 400.0, 900.0]),
       seed=st.integers(0, 2**32))
@example(principals=3, mode=TimeoutMode.per_phase(60), stalls={5: 90.0, 9: math.inf},
         request_bytes={3: 0}, response_bytes={5: 1}, horizon=200.0, seed=2)
def test_aggregate_matches_reference_fold_on_drawn_scenarios(principals, mode, stalls,
                                                             request_bytes, response_bytes,
                                                             horizon, seed):
    # the open-phase table agrees with the reference, which keeps every
    # phase's first send, and the session records with the final session
    # states, also where stalls drop sessions or the horizon cuts phases off
    scenario = replace(SMALL, principals=principals, session_spread_s=30.0, horizon_s=horizon,
                       seed=seed, timeout_mode=mode, phase_request_bytes=request_bytes,
                       phase_response_bytes=response_bytes,
                       stalls=tuple(Stall(phase_spec(k).destination, k, delay)
                                    for k, delay in stalls.items()))
    run = simnet.run(scenario)
    assert folded(aggregate(run)) == reference_fold(run)


# what `crossrealm run` prints besides the paths it wrote
CLI_PRINTOUT = {
    "small": (SMALL, ["sessions: started=4 completed=4 dropped=0 in-flight=0",
                      "end-to-end mean: 59.309 s",
                      "peak traffic sent: 0.139 Mbps",
                      "max network delay: 7.504 ms"]),
    "stalled-at-f": (STALLED_AT_F, ["sessions: started=4 completed=0 dropped=4 in-flight=0",
                                    "peak traffic sent: 0.139 Mbps",
                                    "max network delay: 7.504 ms"]),
    "cut-off": (CUT_OFF, ["sessions: started=12 completed=0 dropped=6 in-flight=6",
                          "peak traffic sent: 0.090 Mbps",
                          "max network delay: 7.504 ms",
                          "warning: horizon exceeded; report is partial"]),
}


@pytest.mark.parametrize("case", CLI_PRINTOUT)
def test_cli_run_printout(tmp_path, capsys, case):
    scenario, expected = CLI_PRINTOUT[case]
    save_scenario(scenario, tmp_path / "scenario.json")
    assert cli.main(["run", "--scenario", str(tmp_path / "scenario.json"),
                     "--out", str(tmp_path / "out")]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line for line in lines if not line.startswith("wrote ")] == expected


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
        aggregate(run)
    finally:
        gc.callbacks.remove(note)
    assert started.count(1) == started.count(2) == 0


def test_run_experiment_matches_manual_pipeline():
    direct = run_experiment(SMALL)
    manual = aggregate(simnet.run(SMALL))
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


# sha256 of each report file of the STALLED_AT_F run, in both formats
STALLED_REPORT_SHA256 = {
    "summary.csv": "ae8ab05a2096ad346511582a41d3af4a7b54b606dffa11732ee089e2cb6d063f",
    "per_phase.csv": "5ddfda01492a9a2451fafc4e7da7898de0d35796bbfb1b872317ada976adb7e5",
    "timeseries.csv": "1ce7e70be37f5b9c6e1293ccd54f345f499d0d72a84b5cec1c729b31cfec043c",
    "summary.json": "a3ba24cb5adcd646f0bfbbc933f13133eb407edd0fefb4e736c09abe4a8fa214",
    "per_phase.json": "83c25d9c0fa1ff46473db5ff45d0c033617c81d5776430c960ef22aa6abb69bc",
    "timeseries.json": "abf11e68c4560e80ab26a8f5f9e3075ec17363651d53a0119744853e9c02c9d5",
}


def test_stalled_report_files_pinned(tmp_path):
    report = run_experiment(STALLED_AT_F)
    paths = [*emit_report(report, "csv", tmp_path), *emit_report(report, "json-like", tmp_path)]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths} == STALLED_REPORT_SHA256


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
    assert report["sessions.started"] == 0
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


# malformed report -> (report format, the file broken, how it is broken)
MALFORMED_REPORTS = {
    "summary-csv-value": ("csv", "summary.csv", lambda text: text.replace("\nseed,5", "\nseed,x")),
    "summary-json-truncated": ("json-like", "summary.json", lambda text: text[:len(text) // 2]),
    "per-phase-csv-short-row": ("csv", "per_phase.csv", lambda text: text + "14,1.0\n"),
    "summary-json-list": ("json-like", "summary.json", lambda text: "[1, 2]\n"),
}


@pytest.mark.parametrize("case", MALFORMED_REPORTS)
def test_cli_check_reports_a_malformed_report(tmp_path, capsys, case):
    format, name, breaks = MALFORMED_REPORTS[case]
    emit_report(small_report(), format, tmp_path)
    path = tmp_path / name
    path.write_text(breaks(path.read_text()))
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"expectations": []}))
    assert cli.main(["check", "--report", str(tmp_path), "--expect", str(expect)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: ")
    assert "line" in err or case == "summary-json-list"


# an input file that cannot be read as text -> how to make it from its path
UNREADABLE = {
    "not-text": lambda path: path.write_bytes(b"\xff\xfe\x00{}"),
    "a-directory": lambda path: path.mkdir(),
}


def _cli_input(tmp_path, which):
    """CLI arguments that read the given input, and the path they read it from."""
    report, expect = tmp_path / "report", tmp_path / "expect.json"
    emit_report(small_report(), "csv", report)
    expect.write_text(json.dumps({"expectations": []}))
    check = ["check", "--report", str(report), "--expect", str(expect)]
    if which == "scenario":
        return ["validate", "--scenario", str(tmp_path / "scenario.json")], tmp_path / "scenario.json"
    path = expect if which == "expectations" else report / "summary.csv"
    path.unlink()
    return check, path


@pytest.mark.parametrize("how", UNREADABLE)
@pytest.mark.parametrize("which", ["scenario", "expectations", "report"])
def test_cli_reports_an_unreadable_input(tmp_path, capsys, which, how):
    argv, path = _cli_input(tmp_path, which)
    UNREADABLE[how](path)
    assert cli.main(argv) == 1
    assert capsys.readouterr().err.startswith(f"error: {path}: cannot read: ")


@pytest.mark.parametrize("rows", [["sessions,1", "sessions.started,2"],
                                  ["sessions.started,2", "sessions,1"],
                                  ["seed,5", "seed,6"]],
                         ids=["value-then-nested", "nested-then-value", "repeated"])
def test_load_report_refuses_clashing_names(tmp_path, rows):
    emit_report(small_report(), "csv", tmp_path)
    path = tmp_path / "summary.csv"
    path.write_text("metric,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ScenarioParseError) as err:
        load_report(tmp_path)
    assert str(err.value).startswith(f"{path}: line 3: {rows[1].split(',')[0]} clashes")


# refuses every import from outside the standard library but the package's own
STDLIB_ONLY = """
import json
import sys

class StdlibOnly:
    def find_spec(self, name, path=None, target=None):
        top = name.partition(".")[0]
        if top != "crossrealm" and top not in sys.stdlib_module_names:
            raise ImportError(f"{name} is outside the standard library")

before = {name.partition(".")[0] for name in sys.modules}
import crossrealm.cli
loaded = {name.partition(".")[0] for name in sys.modules} - before
assert loaded - set(sys.stdlib_module_names) == {"crossrealm"}, loaded
sys.meta_path.insert(0, StdlibOnly())
for argv in json.loads(sys.argv[1]):
    assert crossrealm.cli.main(argv) == 0, argv
"""


def test_package_runs_on_the_standard_library_alone(tmp_path):
    root = Path(__file__).parent.parent
    scenario = tmp_path / "small.json"
    save_scenario(SMALL, scenario)
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    commands = [["validate", "--scenario", str(root / "scenarios" / "default.json")],
                ["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]]
    done = subprocess.run([sys.executable, "-c", STDLIB_ONLY, json.dumps(commands)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert (tmp_path / "out" / "events.csv").exists()


def test_check_accepts_full_report_object():
    report = small_report()
    verdicts = check_acceptance(report, [
        {"metric": "sessions.started", "op": "gte", "target": 4},
        {"metric": "per_phase_s.5.mean", "op": "within-pct", "target": 5.0,
         "tolerance_pct": 15.0},
    ])
    assert all(v.passed for v in verdicts)
