"""Acceptance suite: one test per criterion, one pass/fail line each.

Criteria 4-7 share a single default-scale run (module-scoped fixture).
Run with ``pytest tests/test_acceptance.py -v -s`` to see the verdict
lines.
"""

import hashlib
import math
import random
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import pytest

from crossrealm import cli, harness, simnet
from crossrealm import keys as keylib
from crossrealm.harness import (
    Scenario,
    aggregate,
    check_acceptance,
    emit_report,
    load_expectations,
)
from crossrealm.protocol import (
    PHASES,
    Role,
    SessionStatus,
    TimeoutMode,
    grant_access,
)
from crossrealm.simnet import csv_lines
from crossrealm.vault import Vault

SCENARIOS_DIR = Path(__file__).parent.parent / "scenarios"

# sha256 of the default run's events.csv; a change to it must be explained
DEFAULT_EVENTS_SHA256 = "de5ec44d4e69e2748e93dbe674261a5853d512ca4ce13561e50e71beb63dab06"
# sha256 of each report file of the default run
DEFAULT_REPORT_SHA256 = {
    "summary.csv": "2a47b0cd5233bfea5d20f5e31c62e6ce5cf6d747f7d44f2372190be3414e1c63",
    "per_phase.csv": "607fe283c19a9b6b5d61163629d36f66e0c3b565d996e8acdac1b234bd44fd67",
    "timeseries.csv": "08899bb700a44cccb6a5c55a4c2cb92d91b99fce1aeb7159af7c92d4a52a04f5",
}

TINY = Scenario(principals=1, sessions_per_principal=1, session_spread_s=1.0,
                horizon_s=400.0, seed=3)


def verdict(number: int, name: str, passed: bool, detail: str = "") -> None:
    line = f"ACCEPTANCE {number:2d} [{name}]: {'PASS' if passed else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert passed, line


@pytest.fixture(scope="module")
def default_run():
    scenario = Scenario()
    started = time.monotonic()
    run = simnet.run(scenario)
    wall = time.monotonic() - started
    report = aggregate(run)
    return scenario, run, report, wall


def test_criterion_01_end_to_end_correctness(run_keeping_slots):
    started = time.monotonic()
    run, roles = run_keeping_slots(TINY)
    wall = time.monotonic() - started
    session = next(iter(run.sessions.values()))
    completions = [r.phase_index for r in run.records
                   if r.kind == "deliver" and r.outcome == "phase-complete"]
    held = roles[Role.A].sessions[session.session_id].requester_key
    ok = (session.status is SessionStatus.COMPLETED
          and completions == list(range(1, 14))
          and held is not None
          and grant_access(roles[Role.CLOUD_A], Role.SAC_SH, held, "R1")
          and grant_access(roles[Role.CLOUD_B], Role.SAC_SH, held, "R2")
          and wall < 1.0)
    verdict(1, "end-to-end protocol correctness", ok,
            f"phases {completions[0]}..{completions[-1]}, wall {wall:.3f}s")


def test_criterion_02_phase_sequencing():
    failures = []
    for k in range(1, 13):
        started = time.monotonic()
        scenario = simnet.inject_stall(TINY, PHASES[k - 1].destination, k, math.inf)
        run = simnet.run(scenario)
        wall = time.monotonic() - started
        phases = [r.phase_index for r in run.records if r.phase_index is not None]
        session = next(iter(run.sessions.values()))
        if max(phases) != k or session.status is not SessionStatus.IN_PROGRESS:
            failures.append((k, max(phases)))
        if wall >= 1.0:
            failures.append((k, f"wall {wall:.2f}s"))
    verdict(2, "phase sequencing under suppressed responses", not failures,
            f"12 sub-cases, failures: {failures or 'none'}")


def test_criterion_03_gatekeeping_across_seeds(run_keeping_slots):
    started = time.monotonic()
    base = Scenario(principals=3, session_spread_s=30.0, horizon_s=300.0)
    bad = 0
    for seed in range(100):
        run, roles = run_keeping_slots(replace(base, seed=seed))
        sh_forwards = set()
        for r in run.records:
            if (r.kind == "send" and r.source == "SAC-SH"
                    and r.destination in ("CloudA", "CloudB")):
                sh_forwards.add((r.session_id, r.destination, r.phase_index))
            if r.kind == "deliver" and r.outcome == "granted":
                if (r.session_id, r.destination, r.phase_index) not in sh_forwards:
                    bad += 1
                if r.source != "SAC-SH":
                    bad += 1
        # direct presentation by the principal is always refused
        for session in [s for s in run.sessions.values() if s.status is SessionStatus.COMPLETED]:
            held = roles[Role.A].sessions[session.session_id].requester_key
            for cloud, resource in ((Role.CLOUD_A, "R1"), (Role.CLOUD_B, "R2")):
                if grant_access(roles[cloud], Role.A, held, resource):
                    bad += 1
    wall = time.monotonic() - started
    verdict(3, "gatekeeping", bad == 0 and wall < 60.0,
            f"100 seeds, {bad} violations, wall {wall:.1f}s")


def test_criterion_04_session_count(default_run):
    _, _, report, wall = default_run
    ok = report["sessions.started"] >= 2000 and wall < 120.0
    verdict(4, "session count >= 2000", ok,
            f"started {report['sessions.started']}, wall {wall:.1f}s")


def test_default_run_reports_no_discards(default_run):
    # the expectations still pass on this run: test_criterion_04_to_07_expectations_file
    _, _, report, _ = default_run
    assert report.tree["discards"] == {}
    assert report.tree["violations"] == {role.value: 0 for role in Role}


def test_default_run_percentiles_pinned(default_run):
    # the values the report held when they were computed with an array library
    _, _, report, _ = default_run
    assert tuple(report[f"end_to_end_s.{q}"] for q in ("p50", "p90", "p99")) == (
        59.30908192000001, 59.30908192000061, 59.309081920000665)


def test_default_run_aggregate_memory_per_session(default_run):
    # aggregate keeps a session's first send only while its phase is open, so
    # its peak grows with the durations it reports, not with every phase it saw
    _, run, report, _ = default_run
    tracemalloc.start()
    try:
        aggregate(run)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak / report["sessions.started"] < 800


def test_default_report_files_pinned(default_run, tmp_path):
    _, _, report, _ = default_run
    paths = emit_report(report, tmp_path)
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in paths} == DEFAULT_REPORT_SHA256


def test_the_run_command_on_two_cpus_writes_the_pinned_report(tmp_path, monkeypatch):
    # the writer child folds the report there: this process makes no fold
    folds, fold = [], harness._Fold
    monkeypatch.setattr(harness, "_usable_cpus", lambda: 2)
    monkeypatch.setattr(harness, "_Fold",
                        lambda scenario: folds.append(scenario) or fold(scenario))
    assert cli.main(["run", "--out", str(tmp_path)]) == 0
    assert folds == []
    assert {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
            for name in DEFAULT_REPORT_SHA256} == DEFAULT_REPORT_SHA256
    events = (tmp_path / "events.csv").read_bytes()
    assert hashlib.sha256(events).hexdigest() == DEFAULT_EVENTS_SHA256


def test_criterion_05_response_times(default_run):
    _, _, report, _ = default_run
    phases = [report[f"per_phase_s.{k}.mean"] for k in range(1, 14)]
    e2e_ok = abs(report["end_to_end_s.mean"] - 60.0) <= 6.0
    phase_ok = all(abs(mean - 5.0) <= 0.75 for mean in phases)
    verdict(5, "end-to-end ~60s and per-phase ~5s", e2e_ok and phase_ok,
            f"e2e {report['end_to_end_s.mean']:.2f}s, "
            f"phases {min(phases):.3f}..{max(phases):.3f}s")


def test_criterion_06_traffic_band(default_run):
    _, _, report, _ = default_run
    peak = report["traffic_bps.peak_sent"]
    ok = 0.75e6 <= peak <= 3.0e6
    verdict(6, "peak traffic in [0.75, 3.0] Mbps", ok, f"peak {peak / 1e6:.3f} Mbps")


def test_criterion_07_network_delay(default_run):
    _, _, report, _ = default_run
    delay = report["max_network_delay_s"]
    verdict(7, "max network delay < 0.06 s", delay < 0.06, f"max {delay * 1e3:.3f} ms")


def test_criterion_04_to_07_expectations_file(default_run):
    # the shipped expectations file encodes the same targets
    _, _, report, _ = default_run
    expectations = load_expectations(SCENARIOS_DIR / "expectations.json")
    verdicts = check_acceptance(report, expectations)
    failed = [v.name for v in verdicts if not v.passed]
    verdict(4, "expectations.json all pass", not failed,
            f"{len(verdicts)} expectations, failed: {failed or 'none'}")


def test_criterion_08_timeout_semantics():
    started = time.monotonic()
    # a 90 s stall under a 60 s per-phase timeout drops at the stalled phase
    sc = replace(TINY, timeout_mode=TimeoutMode.per_phase(60))
    run = simnet.run(simnet.inject_stall(sc, Role.SAC_DB, 5, 90.0))
    s1 = next(iter(run.sessions.values()))
    drop_ok = (s1.status is SessionStatus.DROPPED
               and str(s1.drop_reason) == "phase-timeout(5)")
    # a 30 s stall completes
    run = simnet.run(simnet.inject_stall(sc, Role.SAC_DB, 5, 30.0))
    s2 = next(iter(run.sessions.values()))
    complete_ok = s2.status is SessionStatus.COMPLETED
    # absent cloud responses under the localized 200 s watchdog at F
    sc = replace(TINY, timeout_mode=TimeoutMode.localized_f(200), horizon_s=600.0)
    run = simnet.run(simnet.inject_stall(sc, Role.CLOUD_B, 10, 250.0))
    s3 = next(iter(run.sessions.values()))
    t4 = max(r.time_s for r in run.records
             if r.kind == "deliver" and r.phase_index == 4
             and r.outcome == "phase-complete")
    local_ok = (s3.status is SessionStatus.DROPPED
                and str(s3.drop_reason) == "localized-timeout"
                and abs((s3.ended_at - t4) - 200.0) <= 1.0)
    wall = time.monotonic() - started
    verdict(8, "timeout semantics", drop_ok and complete_ok and local_ok and wall < 10.0,
            f"drop@5={drop_ok}, complete={complete_ok}, localized +{s3.ended_at - t4:.2f}s, "
            f"wall {wall:.1f}s")


def test_criterion_09_key_scheme_properties():
    started = time.monotonic()
    rng = random.Random(0)
    ok = True

    # compose/decompose round-trip on 1000 random part triples
    from crossrealm.keys import HierarchicalKey, KeyPart, KeyRole
    for _ in range(1000):
        parts = (KeyPart(rng.randbytes(32), KeyRole.ROOT),
                 KeyPart(rng.randbytes(32), KeyRole.SUBDOMAIN),
                 KeyPart(rng.randbytes(32), rng.choice((KeyRole.PRIVATE, KeyRole.SESSION))))
        if tuple(HierarchicalKey(*parts)) != parts:
            ok = False

    # common session field across 100 random participant sets
    vault = Vault()
    realms = []
    for c in range(3):
        cloud = f"Cloud{c}"
        vault.register_cloud(cloud, rng.randbytes(16))
        for s in range(2):
            vault.register_subdomain(cloud, f"s{s}")
            realms.append((cloud, f"s{s}"))
    for _ in range(100):
        sid = rng.randbytes(16)
        participants = [(f"u{i}", *rng.choice(realms))
                        for i in range(rng.randint(1, 8))]
        ks = keylib.mint_session_keys(sid, participants, vault)
        if {k.session_field() for k in ks.keys.values()} != {sid}:
            ok = False

    # refresh invalidation across all generations of a 5-refresh chain
    participants = [("u1", "Cloud0", "s0"), ("u2", "Cloud1", "s1")]
    chain = [keylib.mint_session_keys(rng.randbytes(16), participants, vault)]
    for _ in range(5):
        chain.append(keylib.refresh_session(chain[-1], participants, vault))
    latest = chain[-1]
    for i, ks in enumerate(chain):
        for key in ks.keys.values():
            if keylib.verify_session_key(key, latest) != (i == len(chain) - 1):
                ok = False

    wall = time.monotonic() - started
    verdict(9, "key-scheme properties", ok and wall < 10.0, f"wall {wall:.1f}s")


def test_criterion_10_determinism(default_run, tmp_path):
    scenario, first_run, first_report, _ = default_run
    started = time.monotonic()
    second_run = simnet.run(scenario)
    second_report = aggregate(second_run)
    wall = time.monotonic() - started

    events = "".join(csv_lines(first_run.records))
    logs_identical = events == "".join(csv_lines(second_run.records))
    pinned = hashlib.sha256(events.encode()).hexdigest() == DEFAULT_EVENTS_SHA256
    emit_report(first_report, tmp_path / "one")
    emit_report(second_report, tmp_path / "two")
    files_identical = all(
        (tmp_path / "one" / name).read_bytes() == (tmp_path / "two" / name).read_bytes()
        for name in ("summary.csv", "per_phase.csv", "timeseries.csv"))
    verdict(10, "determinism",
            logs_identical and files_identical and pinned and wall < 240.0,
            f"logs identical={logs_identical}, reports identical={files_identical}, "
            f"events.csv sha256 pinned={pinned}, wall {wall:.1f}s")


def test_criterion_11_timeout_anomaly_not_reproduced():
    # With a 60 s per-phase timeout and ~4.6 s phases no timer can fire, so
    # a mass drop under this configuration is deliberately not modeled;
    # this asserts the internally consistent behavior instead.
    scenario = Scenario(principals=50, timeout_mode=TimeoutMode.per_phase(60),
                        session_spread_s=60.0, horizon_s=400.0, seed=2)
    run = simnet.run(scenario)
    sessions = aggregate(run).tree["sessions"]
    ok = sessions["dropped"] == 0 and sessions["completed"] == sessions["started"] > 0
    verdict(11, "60s-timeout mass drop not reproduced (by design)", ok,
            f"{sessions['completed']}/{sessions['started']} completed, "
            f"0 drops expected")
