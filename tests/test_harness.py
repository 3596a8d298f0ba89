"""Tests for scenario files, metrics aggregation, reports, and checks."""

import dataclasses
import errno
import fcntl
import gc
import hashlib
import io
import json
import marshal
import math
import os
import re
import signal
import subprocess
import sys
import tempfile
import threading
from collections import Counter
from dataclasses import replace
from itertools import accumulate, islice
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossrealm import cli, harness, protocol, simnet
from crossrealm.errors import (
    ScenarioParseError,
    ScenarioValidationError,
    UnknownMetric,
)
from crossrealm.harness import (
    EVENT_LOG_CHUNK_LINES,
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
    PHASES,
    PHASE_COUNT,
    MessageKind,
    ProtocolMessage,
    Role,
    SessionStatus,
    TimeoutMode,
)
from crossrealm.simnet import LOG_HEADER, Stall, Topology, csv_lines

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


def test_cli_refuses_a_scenario_that_is_not_an_object(tmp_path, capsys):
    path = tmp_path / "list.json"
    path.write_text('[{"principals": 2}]')
    assert cli.main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {path}: expected a JSON object\n"


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
    # the links' gigabit counts are the fixed wiring's, not a topology key
    ({"topology": {"link_counts": [["A", "SW1", 2]]}}, "topology"),
    ({"phase_request_bytes": {"1": -5}}, "phase_request_bytes"),
    ({"phase_response_bytes": {"14": 1024}}, "phase_response_bytes"),
    ({"propagation_delay_s": 0.001}, "propagation_delay_s"),  # belongs under topology
    ({"principals": 3, "network_start_offset_s": -50, "session_spread_s": 5, "horizon_s": 200},
     "network_start_offset_s"),
    # a field that repeats carries its own test id (the last item of a param)
    pytest.param({"topology": {"bogus": 1}}, "topology", id="topology-unknown-key"),
    # a document written with per-link counts is refused naming topology,
    # whatever counts it gives, not read as the fixed wiring
    pytest.param({"topology": {"link_counts": [["A", "F", 2]]}}, "topology",
                 id="topology-unlinked-pair"),
    pytest.param({"topology": {"link_counts": [["A", "SW1", 10**400]]}}, "topology",
                 id="topology-huge-link-count"),
    pytest.param({"topology": {"link_counts": [["A", "SW1", 2], ["A", "SW1", 3]]}}, "topology",
                 id="topology-link-twice"),
    pytest.param({"topology": {"link_counts": [["A", "SW1", 2], ["SW1", "A", 3]]}}, "topology",
                 id="topology-link-twice-reversed"),
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
    # a stall object's keys are the Stall's fields: a misspelled one is not dropped
    pytest.param({"stalls": [{"role": "SAC-DB", "phase_index": 5, "extra_delay_s": 1.0,
                              "extra_delay": 99}]}, "stalls", id="stalls-unknown-key"),
    # stalls are a JSON list: an object or a text is not read as no stalls
    pytest.param({"stalls": {}}, "stalls", id="stalls-object"),
    pytest.param({"stalls": ""}, "stalls", id="stalls-text"),
    pytest.param({"phase_request_bytes": {"1": 10, "01": 20}}, "phase_request_bytes",
                 id="phase_request_bytes-twice"),
    pytest.param({"phase_request_bytes": {"1": 10**400}}, "phase_request_bytes",
                 id="phase_request_bytes-huge"),
    # a phase key is the decimal text scenario_to_dict writes: int() reads these too
    pytest.param({"phase_request_bytes": {"1_0": 2048}}, "phase_request_bytes",
                 id="phase_request_bytes-underscored-key"),
    pytest.param({"phase_request_bytes": {" 3": 2048}}, "phase_request_bytes",
                 id="phase_request_bytes-spaced-key"),
    # one item per resource cloud, and a window of two ends: the lengths are
    # the Scenario's rules, which the decoders leave to it
    pytest.param({"resources": ["R1", "R2", "R3"]}, "resources", id="resources-three"),
    pytest.param({"app_start_offset_s": [5, 6, 7]}, "app_start_offset_s",
                 id="app_start_offset_s-three"),
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


# an object field's document with a key its class does not take, or without
# one it needs -> the field, and the key its error must name
OBJECT_KEYS = {
    "stall-unknown-key": ("stalls", [{"role": "SAC-DB", "phase_index": 5, "extra_delay_s": 1.0,
                                      "extra_delay": 99}], "extra_delay"),
    "stall-missing-key": ("stalls", [{"role": "SAC-DB", "extra_delay_s": 1.0}], "phase_index"),
    "connection-unknown-key": ("connection", {"bogus": 1}, "bogus"),
    "topology-unknown-key": ("topology", {"link_counts": []}, "link_counts"),
}


@pytest.mark.parametrize("case", OBJECT_KEYS)
def test_object_key_refused_by_name(case):
    field, value, key = OBJECT_KEYS[case]
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict({field: value})
    assert err.value.field == field
    refused = "missing" if case.endswith("missing-key") else "unknown"
    assert str(err.value) == f"{field}: {refused} key {key!r}"


def test_one_row_per_field_in_field_order():
    # each Scenario field's test, rule, decoder and encoder are one row, and
    # the rows' order, which is the document's, is the fields'
    assert list(harness._FIELDS) == [f.name for f in dataclasses.fields(Scenario)]


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
    # a pair is a tuple: a string of two letters would name two resources and
    # save as a list, and a list would leave the frozen scenario unhashable
    "text-resources": (lambda: Scenario(resources="ab"), "resources"),
    "list-resources": (lambda: Scenario(resources=["R1", "R2"]), "resources"),
    "range-app-window": (lambda: Scenario(app_start_offset_s=range(5, 7)), "app_start_offset_s"),
    "list-app-window": (lambda: Scenario(app_start_offset_s=[5.0, 10.0]), "app_start_offset_s"),
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


# the odd values no JSON document holds
NOT_JSON = {"int-tuple", "text-tuple", "text-valued-dict", "object"}


@pytest.mark.parametrize("value", ODD_VALUES)
@pytest.mark.parametrize("field", [f.name for f in dataclasses.fields(Scenario)])
def test_every_field_refuses_or_runs_an_odd_value(field, value):
    # a field added with no type rule lets a raw error out of here; a
    # document's value passes its field's decoder to the same end
    changes = {"principals": 1, "sessions_per_principal": 1, field: ODD_VALUES[value]}
    builds = [lambda: Scenario(**changes)]
    if value not in NOT_JSON:
        builds.append(lambda: scenario_from_dict(changes))
    for build in builds:
        try:
            scenario = build()
        except ScenarioValidationError as err:
            assert err.field == field
            continue
        run_experiment(scenario)


def test_discards_and_violations_reported(tmp_path):
    report = aggregate(simnet.run(STALLED_AT_F))
    assert report["sessions.dropped"] == report["sessions.started"] == 4
    assert report.tree["discards"] == {"SAC-SH": {"session-not-in-progress": 4}}
    assert report.tree["violations"] == {role.value: 0 for role in Role}
    emit_report(report, tmp_path)
    assert load_report(tmp_path)["discards"] == report.tree["discards"]


def test_engine_counts_a_role_discard():
    # the network delivers each phase-1 request twice; F discards the copy
    # and counts it, and the session goes on
    engine = simnet._Engine(SMALL)
    schedule = engine.schedule

    def schedule_phase1_twice(queue, handler, event):
        schedule(queue, handler, event)
        msg = event[2] if len(event) > 2 else None
        if (isinstance(msg, ProtocolMessage) and msg.phase_index == 1
                and msg.kind is MessageKind.REQUEST):
            schedule(queue, handler, (event[0], next(engine.event_seq), *event[2:]))

    engine.schedule = schedule_phase1_twice  # the phases are wired to it by setup
    engine.setup()
    engine.loop()
    run = engine.result()
    assert all(s.status is SessionStatus.COMPLETED for s in run.sessions.values())
    report = aggregate(run)
    started = report["sessions.started"]
    assert report.tree["discards"] == {"F": {"duplicate-session": started}}
    assert report.tree["violations"] == {role.value: started if role is Role.F else 0
                                         for role in Role}


def test_a_negative_seed_is_refused(tmp_path, capsys):
    # random.Random seeds with abs(seed): -7 would give seed 7's run byte for
    # byte, under a report that says seed -7
    path = tmp_path / "negative.json"
    path.write_text(json.dumps({"principals": 1, "seed": -7}))
    out = str(tmp_path / "out")
    for argv in (["validate", "--scenario", str(path)],
                 ["run", "--scenario", str(path), "--out", out],
                 ["run", "--seed", "-7", "--out", out]):
        assert cli.main(argv) == 1
        assert capsys.readouterr().err.startswith("error: seed:")
    with pytest.raises(ScenarioValidationError) as err:
        replace(SMALL, seed=-7)
    assert err.value.field == "seed"
    assert replace(SMALL, seed=0).seed == 0


# a document whose field is wrong -> the error validate prints, in the
# document's terms: a list, an object, a key
DOCUMENT_ERRORS = {
    "stall-unknown-key": ({"stalls": [{"role": "SAC-DB", "phase_index": 5, "extra_delay_s": 1.0,
                                       "extra_delay": 99}]},
                          "stalls: unknown key 'extra_delay'"),
    "resources-text": ({"resources": "ab"},
                       "resources: must be a list of 2 distinct strings, one per resource cloud"),
    "stalls-object": ({"stalls": {}}, "stalls: must be a list of stall objects"),
    "app_start_offset_s-one": ({"app_start_offset_s": [5]}, "app_start_offset_s: must be a list "
                               "of two finite numbers, with 0 <= low <= high"),
    # a role by its name in the phase table, a phase by its number
    "stall-unknown-role": ({"stalls": [{"role": "Nobody", "phase_index": 5,
                                        "extra_delay_s": 1.0}]},
                           "stalls: role 'Nobody' must be one of A, F, SAC, SAC-DB, SAC-SH, "
                           "CloudA, CloudB"),
    "phase-key-text": ({"phase_request_bytes": {"x": 5}},
                       "phase_request_bytes: phase key 'x' is not a phase number"),
}


@pytest.mark.parametrize("case", DOCUMENT_ERRORS)
def test_cli_speaks_a_documents_terms(tmp_path, capsys, case):
    doc, message = DOCUMENT_ERRORS[case]
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"


def test_no_field_rule_names_a_python_type():
    for name, (_, rule, *_) in harness._FIELDS.items():
        assert not re.search(r"\b(tuple|dict|Stall|TimeoutMode|ConnectionModel|Topology)", rule), (
            name, rule)


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
                        topology=Topology(propagation_delay_s=0.002))
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


def test_timeout_seconds_survive_save_load_exactly(tmp_path):
    scenario = Scenario(timeout_mode=TimeoutMode.per_phase(60.1234567))
    save_scenario(scenario, tmp_path / "scenario.json")
    assert load_scenario(tmp_path / "scenario.json").timeout_mode.seconds == 60.1234567


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
    assert scenario_from_dict(json.loads(json.dumps(encoded))) == scenario


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
    # document loads to it, and encodes as it does
    try:
        scenario = replace(SMALL, **changes)
    except ScenarioValidationError:
        return
    encoded = scenario_to_dict(scenario)
    assert scenario_to_dict(scenario_from_dict(encoded)) == encoded
    assert scenario_from_dict(json.loads(json.dumps(encoded))) == scenario


def test_shipped_default_scenario_matches_defaults():
    from pathlib import Path
    shipped = Path(__file__).parent.parent / "scenarios" / "default.json"
    loaded = load_scenario(shipped)
    # the shipped file spells out the per-phase byte maps, which a scenario
    # holds whole however they are given
    assert loaded == Scenario()
    assert loaded.phase_request_bytes == {s.index: s.request_bytes for s in PHASES}
    assert loaded.phase_response_bytes == {s.index: s.response_bytes for s in PHASES}


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


def _slowest_send(run) -> float:
    """The largest network time of a send in the run's log."""
    sc = run.scenario
    return max((simnet.transmit_components(r.payload_bytes, r.source, r.destination,
                                           sc.connection, sc.topology)
                for r in run.records if r.kind == "send"), default=0.0)


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


# the draws of a small scenario with stalls, sizes, horizon and interval
_DRAWN = dict(principals=st.integers(1, 4), mode=_MODES, stalls=_STALLS, request_bytes=_SIZES,
              response_bytes=_SIZES, horizon=st.sampled_from([140.0, 200.0, 400.0, 900.0]),
              interval=st.sampled_from([0.37, 1.0, 7.0, 250.0]), seed=st.integers(0, 2**32))


def _drawn_scenario(principals, mode, stalls, request_bytes, response_bytes, horizon, interval,
                    seed) -> Scenario:
    return replace(SMALL, principals=principals, session_spread_s=30.0, horizon_s=horizon,
                   sampling_interval_s=interval,
                   seed=seed, timeout_mode=mode, phase_request_bytes=request_bytes,
                   phase_response_bytes=response_bytes,
                   stalls=tuple(Stall(PHASES[k - 1].destination, k, delay)
                                for k, delay in stalls.items()))


@settings(max_examples=20, deadline=None)
@given(**_DRAWN)
@example(principals=3, mode=TimeoutMode.per_phase(60), stalls={5: 90.0, 9: math.inf},
         request_bytes={3: 0}, response_bytes={5: 1}, horizon=200.0, interval=1.0, seed=2)
@example(principals=4, mode=TimeoutMode.none(), stalls={}, request_bytes=None,
         response_bytes=None, horizon=900.0, interval=0.37, seed=3)
@example(principals=4, mode=TimeoutMode.localized_f(40), stalls={}, request_bytes=None,
         response_bytes=None, horizon=140.0, interval=250.0, seed=4)
def test_aggregate_matches_reference_fold_on_drawn_scenarios(principals, mode, stalls,
                                                             request_bytes, response_bytes,
                                                             horizon, interval, seed):
    # the open-phase table agrees with the reference, which keeps every
    # phase's first send, and the session records with the final session
    # states, also where stalls drop sessions or the horizon cuts phases
    # off; the bisected buckets agree with the reference's per-record ones
    # at fractional intervals and where the last bucket is cut by the horizon
    scenario = _drawn_scenario(principals, mode, stalls, request_bytes, response_bytes, horizon,
                               interval, seed)
    run = simnet.run(scenario)
    report = aggregate(run)
    assert folded(report) == reference_fold(run)
    assert report["max_network_delay_s"] == _slowest_send(run)


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
    paths = emit_report(report, tmp_path)
    per_phase = (tmp_path / "per_phase.csv").read_text().splitlines()
    assert per_phase[0] == "phase_index,mean_response_s,count"
    assert len(per_phase) == 1 + 13
    assert [p.name for p in paths] == ["summary.csv", "per_phase.csv", "timeseries.csv"]


def test_check_reads_the_report_run_wrote_over_a_stale_one(tmp_path, capsys):
    # summary.json and per_phase.json left by an older two-session report
    # are not read back in place of the report run writes
    (tmp_path / "summary.json").write_text(json.dumps({"sessions": {"started": 2}}))
    (tmp_path / "per_phase.json").write_text("{}")
    save_scenario(replace(SMALL, principals=3, sessions_per_principal=1),
                  tmp_path / "scenario.json")
    assert cli.main(["run", "--scenario", str(tmp_path / "scenario.json"),
                     "--out", str(tmp_path)]) == 0
    wrote = [line for line in capsys.readouterr().out.splitlines() if line.startswith("wrote ")]
    assert wrote == [f"wrote {tmp_path / name}" for name in
                     ("summary.csv", "per_phase.csv", "timeseries.csv", "events.csv")]
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"expectations": [
        {"metric": "sessions.started", "op": "gte", "target": 3}]}))
    assert cli.main(["check", "--report", str(tmp_path), "--expect", str(expect)]) == 0
    assert capsys.readouterr().out.startswith("PASS ")


def test_run_has_no_format_option(tmp_path):
    with pytest.raises(SystemExit) as exit_:
        cli.main(["run", "--format", "csv", "--out", str(tmp_path)])
    assert exit_.value.code == 2


def test_re_emitting_is_byte_identical(tmp_path):
    report = small_report()
    emit_report(report, tmp_path / "one")
    emit_report(report, tmp_path / "two")
    for name in ("summary.csv", "per_phase.csv", "timeseries.csv"):
        assert (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()


# sha256 of each report file of the STALLED_AT_F run
STALLED_REPORT_SHA256 = {
    "summary.csv": "ae8ab05a2096ad346511582a41d3af4a7b54b606dffa11732ee089e2cb6d063f",
    "per_phase.csv": "5ddfda01492a9a2451fafc4e7da7898de0d35796bbfb1b872317ada976adb7e5",
    "timeseries.csv": "1ce7e70be37f5b9c6e1293ccd54f345f499d0d72a84b5cec1c729b31cfec043c",
}


def test_stalled_report_files_pinned(tmp_path):
    report = run_experiment(STALLED_AT_F)
    paths = emit_report(report, tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths} == STALLED_REPORT_SHA256


@pytest.mark.parametrize("scenario", [Scenario(), STALLED_AT_F], ids=["default", "stalled"])
def test_the_report_folds_again_from_events_csv(scenario, tmp_path):
    # events.csv prints each time to 1 ns, so the durations folded from the
    # file are within 2 ns of the run's; every count, traffic figure and
    # series is the same
    run = simnet.run(scenario)
    report = aggregate(run)
    again = aggregate(replace(run, records=simnet.read_event_log(emit_event_log(run, tmp_path))))
    assert again.active_sessions == report.active_sessions
    assert again.traffic_sent_bps == report.traffic_sent_bps
    assert again.traffic_received_bps == report.traffic_received_bps
    rows, rows_again = dict(harness._flatten(report.tree)), dict(harness._flatten(again.tree))
    assert rows.keys() == rows_again.keys()
    durations = [name for name, value in rows.items()
                 if name.startswith(("end_to_end_s.", "per_phase_s.")) and type(value) is float]
    assert durations
    for name, value in rows.items():
        if name in durations:
            assert abs(rows_again[name] - value) <= 2e-9, name
        else:
            assert rows_again[name] == value, name


def test_a_phase_completed_but_never_opened_is_named(tmp_path):
    # every record reads back as a shape a run logs, but the session's first
    # record completes phase 2, which it never opened
    run = simnet.run(Scenario(principals=3))
    header, *lines = emit_event_log(run, tmp_path).read_text().splitlines(keepends=True)
    sid = next(line.split(",")[5] for line in lines if line.split(",")[5])
    lines.insert(1, f"{lines[0].split(',')[0]},1,deliver,A,F,{sid},2,100,phase-complete\n")
    path = tmp_path / "tampered.csv"
    path.write_text(header + "".join(f"{time_s},{i},{rest}" for i, (time_s, _, rest) in
                                     enumerate(line.split(",", 2) for line in lines)))
    log = simnet.read_event_log(path)
    with pytest.raises(ValueError, match=f"^session {sid} completes phase 2, which it never"):
        aggregate(replace(run, records=log))


def test_event_log_file_matches_csv_lines(tmp_path):
    run = simnet.run(STALLED_AT_F)
    blank = {r.kind for r in run.records if r.phase_index is None or r.payload_bytes is None}
    assert {"app-start", "timer-fire", "session-drop"} <= blank
    path = emit_event_log(run, tmp_path)
    assert path.read_bytes() == "".join(csv_lines(run.records)).encode()


def test_event_log_of_a_run_with_no_records_is_its_header(tmp_path):
    # the horizon ends before the first application start
    run = simnet.run(Scenario(principals=1, sessions_per_principal=1, horizon_s=106.0))
    assert len(run.records) == 0
    path = emit_event_log(run, tmp_path)
    assert path.read_text() == "".join(csv_lines(run.records)) == ",".join(LOG_HEADER) + "\n"


def _hand_built_run(records: int) -> simnet.SimRun:
    """A run whose log holds this many records over three sessions and two
    shapes, three records to each time."""
    log = simnet.EventLog()
    sessions = [log.add_session(f"{n:032x}") for n in range(3)]
    shapes = [log.shape("send", "A", "F", 1, 500, "ok"),
              log.shape("app-start", "A", "", None, None, "ok")]
    for n in range(records):
        log.times.append(105.0 + n // 3 * 0.25)
        log.sessions.append(sessions[n % 3])
        log.codes.append(shapes[n % 2])
    return simnet.SimRun(log, {}, {}, Scenario(), False)


@pytest.mark.parametrize("records", [EVENT_LOG_CHUNK_LINES - 1, EVENT_LOG_CHUNK_LINES,
                                     EVENT_LOG_CHUNK_LINES + 1, 2 * EVENT_LOG_CHUNK_LINES])
def test_event_log_written_in_chunks_is_the_whole_log(tmp_path, records):
    # around a chunk's edge, with the header as the first chunk's first line
    run = _hand_built_run(records)
    text = emit_event_log(run, tmp_path).read_text()
    assert text == "".join(csv_lines(run.records))
    assert len(text.splitlines()) == 1 + records


def _grown(run: simnet.SimRun, writer) -> simnet.SimRun:
    """The run with its log built again record by record and handed to the
    writer as a run hands it over while it grows: after each third of it,
    and once more whole. Each session id and shape is added when a record
    first names it, so later hand-offs carry new ones."""
    log, index = simnet.EventLog(), {"": 0}
    step = max(1, len(run.records) // 3)
    for n, record in enumerate(run.records, start=1):
        sid = record.session_id
        if sid not in index:
            index[sid] = log.add_session(sid)
        log.times.append(record.time_s)
        log.sessions.append(index[sid])
        log.codes.append(log.shape(*record[1:4], *record[5:]))
        if n % step == 0:
            writer(log)
    writer(log)
    assert list(csv_lines(log)) == list(csv_lines(run.records))
    return replace(run, records=log)


def _run_and_write(scenario: Scenario, out: Path) -> tuple[simnet.SimRun, Path]:
    """Run the scenario and write its events.csv as the run command does."""
    writer = harness.EventLogWriter(out, scenario)
    try:
        run = simnet.run(scenario, writer)
        return run, emit_event_log(run, out, writer)
    finally:
        writer.close()


def _open_fds() -> list[str] | None:
    """This process's open file descriptors; None where there is no procfs."""
    try:
        return sorted(os.listdir("/proc/self/fd"))
    except FileNotFoundError:
        return None


@pytest.fixture
def forks(monkeypatch):
    """The children that os.fork makes during a test (``made``) and how many
    times this process formatted a log (``formatted``), which it does only
    where no writer child wrote the file; after the test, no child may be
    left, finished or running, nor a pipe to one left open."""
    fds = _open_fds()
    seen = SimpleNamespace(made=[], formatted=0)
    fork, parent = os.fork, os.getpid()

    def counted_fork():
        pid = fork()
        if pid:
            seen.made.append(pid)
        return pid

    def counted_csv_lines(log, start=0):
        if os.getpid() == parent:
            seen.formatted += 1
        return csv_lines(log, start)

    monkeypatch.setattr(os, "fork", counted_fork)
    monkeypatch.setattr(harness, "csv_lines", counted_csv_lines)
    yield seen
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)
    assert _open_fds() == fds


def _cpus(monkeypatch, cpus: int) -> None:
    monkeypatch.setattr(harness, "_usable_cpus", lambda: cpus)


def assert_whole_log(path: Path, run: simnet.SimRun) -> None:
    """The file is the run's whole log, and the only file in its directory."""
    assert path.read_bytes() == "".join(csv_lines(run.records)).encode()
    assert os.listdir(path.parent) == ["events.csv"]


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-process", "two-processes"])
@pytest.mark.parametrize("records", [0, 1, 2, 7, EVENT_LOG_CHUNK_LINES - 1,
                                     EVENT_LOG_CHUNK_LINES + 1])
def test_event_log_is_whole_on_either_path(tmp_path, monkeypatch, forks, cpus, records):
    # given two CPUs, the child forked when the writer is made formats the
    # records of each hand-off, and the header alone of an empty log
    _cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    built = _hand_built_run(records)
    writer = harness.EventLogWriter(out, built.scenario)
    assert (writer.pid is None) is (cpus == 1)
    try:
        run = _grown(built, writer)
        assert_whole_log(emit_event_log(run, out, writer), run)
    finally:
        writer.close()
    # the file is the child's, not one this process formatted again
    assert len(forks.made) == (cpus > 1)
    assert forks.formatted == (not forks.made)


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-process", "two-processes"])
def test_event_log_of_a_drawn_run_is_whole_on_either_path(tmp_path, monkeypatch, forks, cpus):
    _cpus(monkeypatch, cpus)
    run, path = _run_and_write(replace(Scenario(), principals=40, seed=11), tmp_path / "out")
    assert len(run.records) > 4000
    assert_whole_log(path, run)
    assert len(forks.made) == cpus - 1
    assert forks.formatted == 2 - cpus


@pytest.mark.parametrize("failure", ["raises", "killed"])
def test_a_failed_child_leaves_the_whole_log(tmp_path, monkeypatch, forks, failure):
    # the child formats the first range handed to it, then fails on the
    # second; this process then writes the whole log
    parent, counted = os.getpid(), harness.csv_lines

    def formatter(log, start=0):
        if os.getpid() != parent and start > 0:
            if failure == "killed":
                os.kill(os.getpid(), signal.SIGKILL)
            raise RuntimeError("the child fails")
        return counted(log, start)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "csv_lines", formatter)
    out = tmp_path / "out"
    writer = harness.EventLogWriter(out, STALLED_AT_F)
    handed = []

    def hand_off(log):
        writer(log)
        handed.append(writer.pipe is not None)
        if len(handed) == 2:  # the second range went out: let the child end
            os.waitid(os.P_PID, forks.made[0], os.WEXITED | os.WNOWAIT)

    try:
        run = _grown(simnet.run(STALLED_AT_F), hand_off)
        # the third hand-off met a broken pipe: nothing more was sent
        assert handed[:3] == [True, True, False]
        assert_whole_log(emit_event_log(run, out, writer), run)
    finally:
        writer.close()
    assert len(forks.made) == 1
    assert forks.formatted == 1


def test_a_child_failing_after_the_end_mark_leaves_the_whole_log(tmp_path, monkeypatch, forks):
    # the child is fed the whole log and is killed once it has answered the
    # end mark: its report is the receipt for the file it closed before, so
    # the file is kept however the child ended
    parent, send = os.getpid(), harness._send

    def sending(fd, data):
        send(fd, data)
        if os.getpid() != parent:  # the child sends only its answer
            os.kill(os.getpid(), signal.SIGKILL)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "_send", sending)
    out = tmp_path / "out"
    writer = harness.EventLogWriter(out, STALLED_AT_F)
    try:
        run = _grown(simnet.run(STALLED_AT_F), writer)
        assert writer.pipe is not None and writer.sent == len(run.records)
        assert writer.finish(run) == aggregate(run)
        assert_whole_log(emit_event_log(run, out, writer), run)
    finally:
        writer.close()
    assert len(forks.made) == 1
    assert forks.formatted == 0


@pytest.mark.skipif(not hasattr(fcntl, "F_GETPIPE_SZ"), reason="pipe sizes are set on Linux")
def test_the_writer_pipe_holds_a_large_hand_off(tmp_path, monkeypatch, forks):
    # with the default 64 KiB the run's process waited for the child to read
    _cpus(monkeypatch, 2)
    writer = harness.EventLogWriter(tmp_path, Scenario())
    try:
        assert fcntl.fcntl(writer.pipe, fcntl.F_GETPIPE_SZ) == harness.PIPE_BYTES
    finally:
        writer.close()
    assert os.listdir(tmp_path) == []


def _read_stat(monkeypatch, read) -> None:
    """Give harness, for /proc/self/stat, what ``read`` makes of the file's
    bytes; every other file opens as it would."""
    real_open = open

    def routed_open(file, *args, **kwargs):
        if file != "/proc/self/stat":
            return real_open(file, *args, **kwargs)
        with real_open(file, "rb") as stat:
            return io.BytesIO(read(stat.read()))

    monkeypatch.setattr(harness, "open", routed_open, raising=False)


def _cpu_of(stat: bytes) -> int:
    """The CPU in a /proc/<pid>/stat line: field 39, the 37th after the
    command name's closing parenthesis."""
    return int(stat.rpartition(b")")[2].split()[36])


def _child_cpus(monkeypatch) -> list[set[int]]:
    """The CPUs each writer child may run on, read as its writer ends it:
    once its report came, the child has long passed its first act."""
    seen, end = [], harness.EventLogWriter._end

    def read_then_end(writer):
        seen.append(os.sched_getaffinity(writer.pid))
        end(writer)

    monkeypatch.setattr(harness.EventLogWriter, "_end", read_then_end)
    return seen


AFFINITY = pytest.mark.skipif(not hasattr(os, "sched_setaffinity"),
                              reason="CPU affinity is set on Linux")
# procfs names the CPU this process is on, and the OS the ones it may use
NAMED_CPU = hasattr(os, "sched_setaffinity") and os.path.exists("/proc/self/stat")
SMALL_RUN = replace(Scenario(), principals=40, seed=11)


def _no_procfs(stat: bytes) -> bytes:
    raise FileNotFoundError(errno.ENOENT, "no procfs")


def _cpu_field_cut_off(stat: bytes) -> bytes:
    return stat.rpartition(b")")[0] + b") R 1"


def _cpu_field_garbled(stat: bytes) -> bytes:
    command, _, fields = stat.rpartition(b")")
    fields = fields.split()
    fields[36] = b"x"
    return command + b") " + b" ".join(fields)


@pytest.mark.skipif(not (NAMED_CPU and len(os.sched_getaffinity(0)) > 1),
                    reason="a CPU to keep off and another to run on, named by procfs")
def test_the_writer_child_keeps_off_the_cpu_the_run_was_on(tmp_path, monkeypatch, forks):
    # the child runs beside the loop rather than take turns with it on one CPU
    stats = []
    _read_stat(monkeypatch, lambda stat: stats.append(stat) or stat)
    child_cpus = _child_cpus(monkeypatch)
    run, report, folds, _ = _aggregate_through_writer(monkeypatch, SMALL_RUN, tmp_path / "out")
    assert folds == 0 and report == aggregate(run)
    (stat,) = stats  # read once, as the writer forked
    ours = os.sched_getaffinity(0)
    assert _cpu_of(stat) in ours
    assert child_cpus == [ours - {_cpu_of(stat)}]
    assert child_cpus[0] and child_cpus[0] < ours


@AFFINITY
def test_a_writer_child_on_the_runs_one_cpu_is_not_pinned(tmp_path, monkeypatch, forks):
    # two CPUs claimed under a one-CPU affinity leave the child no other CPU:
    # it is forked as it was before the pin, never given an empty set
    ours = os.sched_getaffinity(0)
    cpu = min(ours)
    child_cpus = _child_cpus(monkeypatch)
    os.sched_setaffinity(0, {cpu})
    try:
        run, report, folds, _ = _aggregate_through_writer(monkeypatch, SMALL_RUN,
                                                          tmp_path / "out")
    finally:
        os.sched_setaffinity(0, ours)
    assert folds == 0 and report == aggregate(run)
    assert child_cpus == [{cpu}]
    assert len(forks.made) == 1


@AFFINITY
@pytest.mark.parametrize("read", [_no_procfs, _cpu_field_cut_off, _cpu_field_garbled],
                         ids=["no-procfs", "cut-off", "garbled"])
def test_a_writer_child_whose_run_cpu_is_unknown_is_not_pinned(tmp_path, monkeypatch, forks,
                                                               read):
    # the CPU cannot be read, or its field is missing or not a number: the
    # child runs wherever the run's process may
    _read_stat(monkeypatch, read)
    child_cpus = _child_cpus(monkeypatch)
    run, report, folds, _ = _aggregate_through_writer(monkeypatch, SMALL_RUN, tmp_path / "out")
    assert folds == 0 and report == aggregate(run)
    assert child_cpus == [os.sched_getaffinity(0)]


@pytest.mark.skipif(not NAMED_CPU, reason="the CPU is named by procfs")
def test_the_run_cpu_is_read_after_the_command_names_last_parenthesis(monkeypatch):
    # a command name may hold spaces and parentheses: the fields are counted
    # from after its last ")"
    stats = []

    def renamed(stat):
        stats.append(stat)
        return stat.partition(b" (")[0] + b" (a) b)" + stat.rpartition(b")")[2]

    _read_stat(monkeypatch, renamed)
    assert harness._other_cpus() == os.sched_getaffinity(0) - {_cpu_of(stats[0])}


@pytest.mark.skipif(not hasattr(fcntl, "F_SETPIPE_SZ"), reason="pipe sizes are set on Linux")
def test_a_hand_off_cut_short_by_a_signal_is_still_sent_whole(tmp_path, monkeypatch, forks):
    # a one-page pipe makes each hand-off's write wait for the child to read,
    # and a timer's signal cuts the waiting write short; _send writes the
    # rest, so the child's report comes and its file is kept
    write, short = os.write, []

    def counted_write(fd, data):
        written = write(fd, data)
        if fd == writer.pipe and written < len(data):
            short.append(written)
        return written

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "PIPE_BYTES", 4096)
    scenario = replace(Scenario(), principals=300)
    writer = harness.EventLogWriter(tmp_path / "out", scenario)
    monkeypatch.setattr(os, "write", counted_write)
    handler = signal.signal(signal.SIGALRM, lambda signum, frame: None)
    signal.setitimer(signal.ITIMER_REAL, 0.0005, 0.0005)
    try:
        run = simnet.run(scenario, writer)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, handler)
    try:
        report = aggregate(run, writer)
        assert_whole_log(emit_event_log(run, tmp_path / "out", writer), run)
    finally:
        writer.close()
    assert short  # the signal did cut a hand-off short
    assert len(forks.made) == 1
    assert forks.formatted == 0  # the child's report came
    assert report == aggregate(run)


def test_a_failed_fork_leaves_the_whole_log(tmp_path, monkeypatch, forks):
    def fork():
        raise BlockingIOError(errno.EAGAIN, "no process to spare")

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", fork)
    run, path = _run_and_write(STALLED_AT_F, tmp_path / "out")
    assert_whole_log(path, run)
    assert forks.formatted == 1


def test_a_process_with_threads_writes_the_log_itself(tmp_path, monkeypatch, forks):
    # a fork would copy no thread but the caller's, and Python 3.12+ warns of it
    _cpus(monkeypatch, 2)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        run, path = _run_and_write(STALLED_AT_F, tmp_path / "out")
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
    assert_whole_log(path, run)
    assert forks.made == []
    assert forks.formatted == 1


def test_run_command_leaves_no_process_or_temporary_file(tmp_path, monkeypatch, forks):
    _cpus(monkeypatch, 2)
    scenario = tmp_path / "scenario.json"
    save_scenario(STALLED_AT_F, scenario)
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 0
    assert len(forks.made) == 1
    assert forks.formatted == 0
    assert sorted(os.listdir(tmp_path / "out")) == [
        "events.csv", "per_phase.csv", "summary.csv", "timeseries.csv"]
    assert (tmp_path / "out" / "events.csv").read_bytes() == "".join(
        csv_lines(simnet.run(STALLED_AT_F).records)).encode()


@pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt],
                         ids=["raises", "interrupted"])
@pytest.mark.parametrize("where", ["loop", "aggregate"])
def test_a_failed_run_leaves_no_process_or_event_log(tmp_path, monkeypatch, forks, failure,
                                                     where):
    # the run fails after the writer forked, before any report was written
    advance = protocol.advance_phase

    def failing_advance(session):
        if session.current_phase == 8:  # phase 9 completes, about 25 s after the fork
            raise failure("a handler fails")
        return advance(session)

    def failing_aggregate(run, writer=None):
        raise failure("aggregate fails")

    _cpus(monkeypatch, 2)
    if where == "loop":
        monkeypatch.setattr(protocol, "advance_phase", failing_advance)
    else:
        monkeypatch.setattr(harness, "aggregate", failing_aggregate)
    scenario = tmp_path / "scenario.json"
    save_scenario(STALLED_AT_F, scenario)
    with pytest.raises(failure):
        cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")])
    assert len(forks.made) == 1
    assert os.listdir(tmp_path / "out") == []


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-process", "two-processes"])
def test_a_directory_where_the_part_file_goes_fails_the_run_by_name(tmp_path, monkeypatch, forks,
                                                                     capsys, cpus):
    # the event log cannot be written: the run's own error is the one told,
    # and removing the part file at the end does not replace it
    _cpus(monkeypatch, cpus)
    out = tmp_path / "out"
    (out / "events.csv.part").mkdir(parents=True)
    save_scenario(SMALL, tmp_path / "scenario.json")
    assert cli.main(["run", "--scenario", str(tmp_path / "scenario.json"),
                     "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: out: {out / 'events.csv.part'}: Is a directory\n"
    assert len(forks.made) == cpus - 1
    assert (out / "events.csv.part").is_dir() and not (out / "events.csv").exists()


def test_a_writer_made_for_another_directory_leaves_the_log_to_this_process(tmp_path,
                                                                            monkeypatch, forks):
    # the child's file is under the writer's directory, not the one asked for
    _cpus(monkeypatch, 2)
    writer = harness.EventLogWriter(tmp_path / "out", STALLED_AT_F)
    try:
        run = simnet.run(STALLED_AT_F, writer)
        assert_whole_log(emit_event_log(run, tmp_path / "other", writer), run)
    finally:
        writer.close()
    assert os.listdir(tmp_path / "out") == []
    assert len(forks.made) == 1
    assert forks.formatted == 1


def _folds_made(monkeypatch) -> list:
    """The scenarios of the folds that this process makes from now on; the
    child's appends go to its own copy of the list."""
    folds, fold = [], harness._Fold
    monkeypatch.setattr(harness, "_Fold",
                        lambda scenario: folds.append(scenario) or fold(scenario))
    return folds


def _aggregate_through_writer(monkeypatch, scenario: Scenario, out: Path):
    """Run the scenario as the run command does on two CPUs: the run hands
    its log to a writer, ``aggregate`` is given the writer, and events.csv is
    written. Returns the run, its report, the folds this process made (none
    where the writer's child answered) and the file."""
    folds = _folds_made(monkeypatch)
    _cpus(monkeypatch, 2)
    writer = harness.EventLogWriter(out, scenario)
    try:
        run = simnet.run(scenario, writer)
        report = aggregate(run, writer)
        path = emit_event_log(run, out, writer)
    finally:
        writer.close()
    return run, report, len(folds), path


@settings(max_examples=20, deadline=None)
@given(**_DRAWN)
def test_the_child_folds_the_report_aggregate_folds_on_drawn_scenarios(
        principals, mode, stalls, request_bytes, response_bytes, horizon, interval, seed):
    # fed a slice of the horizon at a time, the writer child's fold agrees
    # with this process's fold of the whole log and with the reference
    scenario = _drawn_scenario(principals, mode, stalls, request_bytes, response_bytes, horizon,
                               interval, seed)
    with pytest.MonkeyPatch.context() as monkeypatch, tempfile.TemporaryDirectory() as out:
        run, report, folds, path = _aggregate_through_writer(monkeypatch, scenario, Path(out))
        assert folds == 0
        assert_whole_log(path, run)
    assert report == aggregate(run)
    assert folded(report) == reference_fold(run)


def _splits_a_bucket(run: simnet.SimRun) -> bool:
    """Whether a traffic bucket holds records on both sides of a slice's end."""
    scenario, times = run.scenario, run.records.times
    for k in range(1, simnet.WRITER_SLICES):
        end = scenario.horizon_s * k / simnet.WRITER_SLICES
        before = [t for t in times if t <= end]
        after = [t for t in times if t > end]
        if before and after and (int(before[-1] / scenario.sampling_interval_s)
                                 == int(after[0] / scenario.sampling_interval_s)):
            return True
    return False


def _a_shape_first_logged_late(run: simnet.SimRun) -> bool:
    """Whether a discard's shape is first logged a slice or more after the first record."""
    discards = [r.time_s for r in run.records if r.outcome.startswith("discarded:")]
    slice_s = run.scenario.horizon_s / simnet.WRITER_SLICES
    return bool(discards) and discards[0] > run.records.times[0] + slice_s


# named runs of the child's fold -> (scenario, what its run must show)
CHILD_FOLDS = {
    "split-bucket": (replace(Scenario(), principals=40, seed=11, sampling_interval_s=7.0),
                     _splits_a_bucket),
    "cut-off": (CUT_OFF, lambda run: run.horizon_exceeded),
    "empty": (Scenario(principals=1, sessions_per_principal=1, horizon_s=106.0),
              lambda run: len(run.records) == 0),
    "late-shape": (STALLED_AT_F, _a_shape_first_logged_late),
}


@pytest.mark.parametrize("case", CHILD_FOLDS)
def test_the_child_folds_the_report_aggregate_folds(tmp_path, monkeypatch, forks, case):
    # a bucket split by two hand-offs sums both parts; a shape first seen in
    # a late hand-off extends the child's per-code tables
    scenario, shows = CHILD_FOLDS[case]
    run, report, folds, path = _aggregate_through_writer(monkeypatch, scenario, tmp_path / "out")
    assert shows(run)
    assert folds == 0
    assert report == aggregate(run)
    assert folded(report) == reference_fold(run)
    assert_whole_log(path, run)
    assert len(forks.made) == 1
    assert forks.formatted == 0


def test_a_writer_made_for_another_scenario_gives_no_report(tmp_path, monkeypatch, forks):
    # the child folds with the writer's sampling interval; a run of another
    # scenario is folded here, with its own
    folds = _folds_made(monkeypatch)
    _cpus(monkeypatch, 2)
    scenario = replace(Scenario(), principals=40, seed=11)
    writer = harness.EventLogWriter(tmp_path / "out", replace(scenario, sampling_interval_s=7.0))
    try:
        run = simnet.run(scenario, writer)
        report = aggregate(run, writer)
        assert_whole_log(emit_event_log(run, tmp_path / "out", writer), run)
    finally:
        writer.close()
    assert len(folds) == 1
    assert report == aggregate(run)
    assert folded(report) == reference_fold(run)
    assert len(forks.made) == 1


def test_a_writer_made_for_the_default_takes_the_shipped_default_run(tmp_path, monkeypatch,
                                                                    forks):
    # the default built in Python and the one loaded from its document are
    # one scenario, so the writer's child folds the loaded run's log
    folds = _folds_made(monkeypatch)
    _cpus(monkeypatch, 2)
    writer = harness.EventLogWriter(tmp_path / "out", Scenario())
    try:
        shipped = Path(__file__).parent.parent / "scenarios" / "default.json"
        run = simnet.run(load_scenario(shipped), writer)
        aggregate(run, writer)
        assert writer.report is not None
    finally:
        writer.close()
    assert folds == []
    assert len(forks.made) == 1


# the slowest leg is phase 13's request, which the horizon cuts off before
# any session reaches phase 13
UNSENT_SLOWEST = replace(SMALL, horizon_s=165.0, phase_request_bytes={13: 10**6})


@pytest.mark.parametrize("cpus", [1, 2], ids=["one-process", "writer-child"])
def test_an_unsent_leg_does_not_count_toward_the_delay(tmp_path, monkeypatch, forks, cpus):
    # the engine makes a send shape for every leg before the run: only the
    # shapes of the log's records count, in either process's fold
    folds = _folds_made(monkeypatch)
    _cpus(monkeypatch, cpus)
    writer = harness.EventLogWriter(tmp_path / "out", UNSENT_SLOWEST)
    assert (writer.pid is None) is (cpus == 1)
    try:
        run = simnet.run(UNSENT_SLOWEST, writer)
        report = aggregate(run, writer)
    finally:
        writer.close()
    assert len(folds) == 2 - cpus  # on two CPUs, the child's report
    spec = PHASES[12]
    phases = {r.phase_index for r in run.records if r.kind == "send"}
    assert 12 in phases and 13 not in phases
    unsent = simnet.transmit_components(10**6, spec.source.value, spec.destination.value,
                                        UNSENT_SLOWEST.connection, UNSENT_SLOWEST.topology)
    assert report["max_network_delay_s"] == _slowest_send(run) < unsent


@pytest.mark.parametrize("calls", ["aggregate-then-emit", "emit-only"])
def test_the_child_is_ended_once(tmp_path, monkeypatch, forks, calls):
    # the end mark, the marshalled horizon flag, goes out, and the child is
    # waited for, once however many calls are given the writer;
    # emit_event_log keeps the child's file
    send, waitpid = harness._send, os.waitpid
    marks, waits = [], []

    def counted_send(fd, data):
        if type(marshal.loads(data)) is bool:  # not a hand-off, which is a tuple
            marks.append(data)
        send(fd, data)

    def counted_waitpid(pid, options):
        waits.append(pid)
        return waitpid(pid, options)

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(harness, "_send", counted_send)
    monkeypatch.setattr(os, "waitpid", counted_waitpid)
    out = tmp_path / "out"
    writer = harness.EventLogWriter(out, STALLED_AT_F)
    try:
        run = simnet.run(STALLED_AT_F, writer)
        if calls == "aggregate-then-emit":
            assert aggregate(run, writer) == aggregate(run)
        assert_whole_log(emit_event_log(run, out, writer), run)
        # a later call gives the first call's answer: the report, the
        # receipt for the file that emit_event_log kept
        assert writer.finish(run) == aggregate(run)
    finally:
        writer.close()
    assert marks == [marshal.dumps(False)]
    assert waits == forks.made and len(waits) == 1
    assert forks.formatted == 0


def test_the_run_command_on_two_cpus_writes_the_stalled_report(tmp_path, monkeypatch, forks):
    folds = _folds_made(monkeypatch)
    _cpus(monkeypatch, 2)
    scenario = tmp_path / "scenario.json"
    save_scenario(STALLED_AT_F, scenario)
    assert cli.main(["run", "--scenario", str(scenario), "--out", str(tmp_path / "out")]) == 0
    assert folds == []  # the writer child's report
    assert {name: hashlib.sha256((tmp_path / "out" / name).read_bytes()).hexdigest()
            for name in STALLED_REPORT_SHA256} == STALLED_REPORT_SHA256
    assert len(forks.made) == 1


@pytest.mark.parametrize("failure", ["killed-before-answering", "raises-in-feed",
                                     "close-fails", "answers-part-way", "answers-then-fails"])
def test_a_failed_child_leaves_the_report_and_the_whole_log(tmp_path, monkeypatch, forks,
                                                             failure):
    # where the child gave no report, this process folds the log and formats it
    parent = os.getpid()
    if failure == "killed-before-answering":
        fold_report = harness._Fold.report

        def failing(self, horizon_exceeded):
            if os.getpid() != parent:
                os.kill(os.getpid(), signal.SIGKILL)
            return fold_report(self, horizon_exceeded)

        monkeypatch.setattr(harness._Fold, "report", failing)
    elif failure == "raises-in-feed":
        feed = harness._Fold.feed

        def failing(self, log, start=0):
            if os.getpid() != parent and start > 0:
                raise RuntimeError("the child fails")
            feed(self, log, start)

        monkeypatch.setattr(harness._Fold, "feed", failing)
    elif failure == "close-fails":
        opener = Path.open

        def failing(path, *args, **kwargs):
            out = opener(path, *args, **kwargs)
            if os.getpid() != parent:  # the child opens only its part file
                close = out.close

                def failing_close():
                    if not out.closed:
                        close()
                        raise OSError(errno.ENOSPC, "the last write fails")

                out.close = failing_close
            return out

        monkeypatch.setattr(Path, "open", failing)
    elif failure == "answers-part-way":  # finish reads a cut-short value: EOFError
        send = harness._send

        def failing(fd, data):
            if os.getpid() != parent:  # the child sends only its answer
                send(fd, data[:len(data) // 2])
                os.kill(os.getpid(), signal.SIGKILL)
            send(fd, data)

        monkeypatch.setattr(harness, "_send", failing)
    else:
        send = harness._send

        def failing(fd, data):
            send(fd, data)
            if os.getpid() != parent:  # the child sends only its answer
                raise RuntimeError("the child fails")

        monkeypatch.setattr(harness, "_send", failing)
    run, report, folds, path = _aggregate_through_writer(monkeypatch, STALLED_AT_F,
                                                         tmp_path / "out")
    # a report is the receipt for the child's file: it is kept where one came
    answered = failure == "answers-then-fails"
    assert folds == forks.formatted == (not answered)
    assert report == aggregate(run)
    assert folded(report) == reference_fold(run)
    assert_whole_log(path, run)
    assert len(forks.made) == 1


@pytest.mark.parametrize("failure", [RuntimeError, KeyboardInterrupt],
                         ids=["raises", "interrupted"])
def test_a_failed_write_leaves_no_event_log(tmp_path, monkeypatch, failure):
    # one process: formatting fails once the first chunk of lines is written
    def formatter(log, start=0):
        yield from islice(csv_lines(log, start), EVENT_LOG_CHUNK_LINES + 1)
        raise failure("formatting fails")

    monkeypatch.setattr(harness, "csv_lines", formatter)
    with pytest.raises(failure):
        emit_event_log(_hand_built_run(2 * EVENT_LOG_CHUNK_LINES), tmp_path)
    assert os.listdir(tmp_path) == []


def test_empty_run_emits_headers_only(tmp_path):
    # horizon ends before the first application start: zero sessions
    scenario = Scenario(principals=1, sessions_per_principal=1, horizon_s=106.0)
    report = run_experiment(scenario)
    assert report["sessions.started"] == 0
    emit_report(report, tmp_path)
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


def test_cli_check_fails_a_metric_with_no_measurement(tmp_path, capsys):
    # no session completes, so the end-to-end mean has no value to compare
    report = aggregate(simnet.run(STALLED_AT_F))
    emit_report(report, tmp_path)
    expectation = {"metric": "end_to_end_s.mean", "op": "lt", "target": 100.0}
    [verdict] = check_acceptance(report, [expectation])
    assert (verdict.passed, verdict.measured, verdict.detail) == (False, None, "no measurement")
    path = tmp_path / "expect.json"
    path.write_text(json.dumps({"expectations": [expectation]}))
    assert cli.main(["check", "--report", str(tmp_path), "--expect", str(path)]) == 2
    assert capsys.readouterr().out == ("FAIL end_to_end_s.mean: no measurement\n"
                                       "0/1 expectations met\n")


def test_unknown_metric_names_its_expectation():
    good = {"metric": "max_network_delay_s", "op": "lt", "target": 0.06}
    with pytest.raises(UnknownMetric) as err:
        check_acceptance(tree_for_checks(), [good, {"metric": "sessions.bogus", "op": "gte",
                                                    "target": 1}])
    assert str(err.value) == "expectation 1 (sessions.bogus): unknown metric"


@pytest.mark.parametrize("metric", ["sessions.bogus", "sessions"], ids=["unknown", "subtree"])
def test_cli_check_names_an_unknown_metric(tmp_path, capsys, metric):
    emit_report(small_report(), tmp_path)
    path = tmp_path / "expect.json"
    path.write_text(json.dumps({"expectations": [{"metric": metric, "op": "gte", "target": 1}]}))
    assert cli.main(["check", "--report", str(tmp_path), "--expect", str(path)]) == 1
    assert capsys.readouterr().err == f"error: expectation 0 ({metric}): unknown metric\n"


# malformed expectation entry -> the text its error must carry
MALFORMED_EXPECTATIONS = {
    "missing-target": ({"metric": "sessions.started", "op": "gte"},
                       "expectation 1 (sessions.started): missing 'target'"),
    "non-numeric-target": ({"metric": "sessions.started", "op": "gte", "target": "many"},
                           "expectation 1 (sessions.started): could not convert"),
    "entry-not-object": (["sessions.started", "gte", 1], "expectation 1 (?):"),
    "unknown-op": ({"metric": "sessions.started", "op": "eq", "target": 1},
                   "expectation 1 (sessions.started): unknown expectation op 'eq'"),
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
    emit_report(small_report(), tmp_path)
    path = tmp_path / "expect.json"
    path.write_text(json.dumps(doc))
    assert cli.main(["check", "--report", str(tmp_path), "--expect", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


# malformed report -> (the file broken, how it is broken)
MALFORMED_REPORTS = {
    "summary-csv-value": ("summary.csv", lambda text: text.replace("\nseed,5", "\nseed,x")),
    "per-phase-csv-short-row": ("per_phase.csv", lambda text: text + "14,1.0\n"),
    "per-phase-csv-repeated-phase": ("per_phase.csv", lambda text: text + next(
        line for line in text.splitlines() if line.startswith("1,")) + "\n"),
}


@pytest.mark.parametrize("case", MALFORMED_REPORTS)
def test_cli_check_reports_a_malformed_report(tmp_path, capsys, case):
    name, breaks = MALFORMED_REPORTS[case]
    emit_report(small_report(), tmp_path)
    path = tmp_path / name
    path.write_text(breaks(path.read_text()))
    expect = tmp_path / "expect.json"
    expect.write_text(json.dumps({"expectations": []}))
    assert cli.main(["check", "--report", str(tmp_path), "--expect", str(expect)]) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: line ")


# an input file that cannot be read as text -> how to make it from its path
UNREADABLE = {
    "not-text": lambda path: path.write_bytes(b"\xff\xfe\x00{}"),
    "a-directory": lambda path: path.mkdir(),
}


def _cli_input(tmp_path, which):
    """CLI arguments that read the given input, and the path they read it from."""
    report, expect = tmp_path / "report", tmp_path / "expect.json"
    emit_report(small_report(), report)
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
    emit_report(small_report(), tmp_path)
    path = tmp_path / "summary.csv"
    path.write_text("metric,value\n" + "\n".join(rows) + "\n")
    with pytest.raises(ScenarioParseError) as err:
        load_report(tmp_path)
    assert str(err.value).startswith(f"{path}: line 3: {rows[1].split(',')[0]} clashes")


def test_load_report_needs_a_summary(tmp_path):
    with pytest.raises(ScenarioParseError, match="no summary.csv under"):
        load_report(tmp_path)


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
