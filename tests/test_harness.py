"""Tests for scenario files, metrics aggregation, reports, and checks."""

import json
from dataclasses import replace

import pytest

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
    emit_report,
    load_report,
    load_scenario,
    run_experiment,
    save_scenario,
    scenario_from_dict,
)
from crossrealm.protocol import Role, TimeoutMode
from crossrealm.simnet import Stall

SMALL = Scenario(principals=2, sessions_per_principal=2, session_spread_s=5.0,
                 horizon_s=400.0, seed=5)


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
]


@pytest.mark.parametrize("doc, field", MALFORMED, ids=[f for _, f in MALFORMED])
def test_malformed_field_named(doc, field):
    with pytest.raises(ScenarioValidationError) as err:
        scenario_from_dict(doc)
    assert err.value.field == field


def test_cli_names_malformed_field(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"principals": 2.5}))
    assert cli.main(["validate", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: principals:")


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


def test_check_accepts_full_report_object():
    report = small_report()
    verdicts = check_acceptance(report, [
        {"metric": "sessions.started", "op": "gte", "target": 4},
        {"metric": "per_phase_s.5.mean", "op": "within-pct", "target": 5.0,
         "tolerance_pct": 15.0},
    ])
    assert all(v.passed for v in verdicts)
