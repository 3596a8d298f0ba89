"""Tests for the discrete-event simulator: topology, timing, determinism."""

import gc
import hashlib
import math
import re
import tempfile
from array import array
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossrealm import protocol as proto
from crossrealm import simnet
from crossrealm.errors import InvalidInput, ScenarioParseError
from crossrealm.harness import Scenario, aggregate, load_scenario
from crossrealm.protocol import (
    PHASES,
    Role,
    RoleState,
    SessionState,
    SessionStatus,
    TimeoutMode,
)
from crossrealm.simnet import (
    ABSORBED,
    ConnectionModel,
    EventLog,
    Record,
    Stall,
    Topology,
    csv_lines,
    inject_stall,
    transmit_components,
)
from reference_engine import reference_csv

SMALL = Scenario(principals=1, sessions_per_principal=1, session_spread_s=1.0,
                 horizon_s=400.0, seed=3)


# -- topology -----------------------------------------------------------------

def test_default_topology_nodes_and_af_aggregate():
    topo = Topology()
    assert topo.nodes == {"A", "SW1", "SW2", "F", "SAC", "SAC-DB", "SAC-SH",
                          "CloudA", "CloudB"}
    assert len(topo.path("A", "F")) == 3  # A-SW1, SW1-SW2, SW2-F
    # the principal-to-front-end connection aggregates eight gigabit links:
    # a gigabyte crosses it in one second
    wire, model = bare_wire()
    assert transmit_components(10**9, "A", "F", model, wire) == 1.0


def test_every_node_reachable():
    topo = Topology()
    for a in topo.nodes:
        for b in topo.nodes:
            assert topo.path(a, b) is not None
            if a != b:
                assert len(topo.path(a, b)) >= 1


# each protocol pair -> its hop count and default bottleneck bandwidth
ROUTES = [("A", "F", 3, 8e9), ("F", "SAC", 2, 4e9), ("SAC", "SAC-DB", 2, 4e9),
          ("SAC", "SAC-SH", 2, 4e9), ("SAC-SH", "CloudA", 2, 4e9),
          ("SAC-SH", "CloudB", 2, 4e9), ("SAC-SH", "F", 2, 4e9)]


@pytest.mark.parametrize("source, destination, hops, default_bps", ROUTES)
def test_each_pair_routes_over_both_uplinks(source, destination, hops, default_bps):
    topo, model = bare_wire()
    for a, b in ((source, destination), (destination, source)):
        assert len(Topology().path(a, b)) == hops
        # a gigabyte is serialized at the bottleneck bandwidth
        assert transmit_components(10**9, a, b, model, topo) == 8e9 / default_bps


def test_a_path_to_itself_costs_only_the_handshake():
    # the path crosses no link: no serialization, no propagation, only the
    # handshake's round trips
    model = ConnectionModel()
    assert transmit_components(1024, "A", "A", model, Topology()) == 1.5 * model.rtt_base_s


def test_negative_propagation_delay_rejected():
    # a negative delay would deliver messages before they are sent
    for delay in (-1.0, math.nan, math.inf, True):
        with pytest.raises(InvalidInput):
            Topology(propagation_delay_s=delay)


# -- transmit ------------------------------------------------------------------

def bare_wire():
    """A path with no propagation, handshake or service: pure serialization."""
    topo = Topology(propagation_delay_s=0.0)
    model = ConnectionModel(handshake_rtts=0.0, per_phase_service_s=0.0, rtt_base_s=0.0)
    return topo, model


def test_transmit_serialization_oracle():
    # A to F crosses three uplinks of eight gigabit links each: 4096 bytes
    # over 8 Gbps = 4.096 microseconds (arithmetic oracle)
    topo, model = bare_wire()
    network = transmit_components(4096, "A", "F", model, topo)
    assert network == pytest.approx(4.096e-06, rel=1e-12)


def test_transmit_zero_payload_pure_propagation():
    topo = Topology(propagation_delay_s=1e-5)
    model = ConnectionModel(handshake_rtts=0.0, per_phase_service_s=0.0, rtt_base_s=0.0)
    network = transmit_components(0, "A", "F", model, topo)
    assert network == pytest.approx(3e-05, rel=1e-12)  # three hops of propagation


def test_transmit_default_calibration_near_five_seconds():
    topo = Topology()
    model = ConnectionModel()
    offset = transmit_components(1024, "A", "F", model, topo) + model.per_phase_service_s
    assert 4.25 <= offset <= 5.75  # per-phase delivery consistent with ~5 s per phase


def test_connection_model_rejects_negative():
    for value in (-1.0, "1"):  # a number of the wrong sign, or no number
        with pytest.raises(InvalidInput):
            ConnectionModel(handshake_rtts=value)
    for value in (math.nan, math.inf):  # NaN would end a run in aggregate
        with pytest.raises(InvalidInput):
            ConnectionModel(per_phase_service_s=value)


# -- the event loop ---------------------------------------------------------------

def test_single_session_completes_thirteen_phases():
    run = simnet.run(SMALL)
    assert len(run.sessions) == 1
    session = next(iter(run.sessions.values()))
    assert session.status is SessionStatus.COMPLETED
    completions = [r.phase_index for r in run.records
                   if r.kind == "deliver" and r.outcome == "phase-complete"]
    assert completions == list(range(1, 14))
    assert not run.horizon_exceeded


def test_same_seed_byte_identical_logs():
    csv1 = "".join(csv_lines(simnet.run(SMALL).records))
    csv2 = "".join(csv_lines(simnet.run(SMALL).records))
    assert csv1 == csv2


def test_different_seed_differs():
    csv1 = "".join(csv_lines(simnet.run(SMALL).records))
    csv2 = "".join(csv_lines(simnet.run(replace(SMALL, seed=4)).records))
    assert csv1 != csv2


def test_causality_and_processing_order():
    run = simnet.run(replace(SMALL, principals=3, sessions_per_principal=2, seed=9))
    times = [r.time_s for r in run.records]
    assert times == sorted(times)
    sends = {}
    for r in run.records:
        key = (r.session_id, r.phase_index, r.payload_bytes, r.source, r.destination)
        if r.kind == "send":
            sends.setdefault(key, []).append(r.time_s)
        elif r.kind == "deliver":
            assert sends[key], f"deliver without send: {key}"
            assert r.time_s >= sends[key][0]


def test_byte_conservation():
    run = simnet.run(replace(SMALL, principals=2, sessions_per_principal=2, seed=5))
    sent = sum(r.payload_bytes for r in run.records if r.kind == "send")
    delivered = sum(r.payload_bytes for r in run.records
                    if r.kind == "deliver" and r.payload_bytes is not None)
    assert sent == delivered  # run to completion: nothing in flight
    # with a suppressed response, the difference is exactly the bytes in flight
    stalled = inject_stall(SMALL, Role.SAC_DB, 5, math.inf)
    run = simnet.run(stalled)
    sent = sum(r.payload_bytes for r in run.records if r.kind == "send")
    delivered = sum(r.payload_bytes for r in run.records
                    if r.kind == "deliver" and r.payload_bytes is not None)
    assert sent == delivered  # suppressed response was never sent
    session = next(iter(run.sessions.values()))
    assert session.status is SessionStatus.IN_PROGRESS  # waits indefinitely


def test_a_suppressed_response_has_no_leg():
    # a stall of inf leaves its phase with no reply leg to send on; every
    # other phase keeps its reply leg. Wiring a leg makes its send shape
    engine = simnet._Engine(inject_stall(SMALL, Role.SAC_DB, 5, math.inf))
    engine.setup()
    sends = {(phase, source) for kind, source, _, phase, _, _ in engine.events.shapes
             if kind == "send"}
    legs = {(spec.index, role.value) for spec in PHASES
            for role in (spec.source, spec.destination)}
    assert sends == legs - {(5, "SAC-DB")}


def test_phase_byte_overrides_reach_the_wire():
    run = simnet.run(replace(SMALL, phase_request_bytes={2: 512},
                             phase_response_bytes={1: 2048}))
    for kind in ("send", "deliver"):
        sizes = {(r.phase_index, r.source): r.payload_bytes for r in run.records if r.kind == kind}
        assert sizes[(1, "A")] == 1024, kind  # the phase-1 request keeps its default
        assert sizes[(1, "F")] == 2048, kind  # the phase-1 response is overridden
        assert sizes[(2, "F")] == 512, kind
        assert sizes[(2, "A")] == 1024, kind


def test_deliveries_match_per_message_timing():
    # the engine times each (phase, kind) once; every delivery must still
    # land where a fresh per-message computation puts it, stall included
    sc = replace(SMALL, principals=3, sessions_per_principal=2, seed=13,
                 phase_request_bytes={3: 65536, 7: 0}, phase_response_bytes={6: 200000},
                 topology=Topology(propagation_delay_s=0.002))
    sc = inject_stall(sc, Role.CLOUD_A, 8, 2.5)
    run = simnet.run(sc)
    topo = sc.topology
    sends = {}
    networks = []
    checked = 0
    for r in run.records:
        if r.kind not in ("send", "deliver"):
            continue
        request = r.source == PHASES[r.phase_index - 1].source.value
        network = transmit_components(r.payload_bytes, r.source, r.destination,
                                      sc.connection, topo)
        offset = network + sc.connection.per_phase_service_s if request else network
        key = (r.session_id, r.phase_index, r.source, r.destination)
        if r.kind == "send":
            sends[key] = r.time_s
            networks.append(network)
        else:
            stall = 2.5 if (r.source, r.phase_index) == ("CloudA", 8) else 0.0
            assert r.time_s - sends.pop(key) == pytest.approx(offset + stall, abs=1e-9), key
            checked += 1
    assert checked == len(networks) == 6 * 26 and not sends
    assert aggregate(run)["max_network_delay_s"] == max(networks)


def test_each_session_is_minted_for_its_requester(run_keeping_slots):
    run, roles = run_keeping_slots(replace(SMALL, principals=5, sessions_per_principal=2,
                                           seed=12))
    completed = [s for s in run.sessions.values() if s.status is SessionStatus.COMPLETED]
    assert len(completed) == 10
    assert len({s.requester.tenant_id for s in completed}) == 5
    for session in completed:
        tenant = session.requester.tenant_id
        keyset = roles[Role.SAC].sessions[session.session_id].keyset
        assert set(keyset.keys) == {tenant}
        for role in (Role.SAC_DB, Role.SAC):
            participants = roles[role].sessions[session.session_id].participants
            assert participants == ((tenant, "CloudC", "analysts"),)
        held = roles[Role.A].sessions[session.session_id].requester_key
        assert held == keyset.keys[tenant]


def test_pair_enforcement_in_log():
    # each message goes between its own phase's two ends, either way
    run = simnet.run(replace(SMALL, principals=2, sessions_per_principal=1, seed=6))
    for r in run.records:
        if r.kind in ("send", "deliver"):
            spec = PHASES[r.phase_index - 1]
            assert {r.source, r.destination} == {spec.source.value, spec.destination.value}, r


def test_network_delay_component_bound():
    assert 0.0 < aggregate(simnet.run(SMALL))["max_network_delay_s"] < 0.06


def test_app_start_draw_window():
    run = simnet.run(replace(SMALL, principals=5, seed=8))
    app_starts = [r.time_s for r in run.records if r.kind == "app-start"]
    assert len(app_starts) == 5
    for t in app_starts:
        assert 110.0 <= t <= 115.0  # network offset 105 plus 5..10


def test_inject_stall_validates_phase():
    with pytest.raises(InvalidInput):
        inject_stall(SMALL, Role.SAC_DB, 14, 1.0)


# each bad stall, and the words its error must hold
@pytest.mark.parametrize("role, phase_index, extra_delay_s, names", [
    pytest.param(Role.SAC_DB, 0, 1.0, "phase_index", id="0-1.0"),
    pytest.param(Role.SAC_DB, 14, 1.0, "phase_index", id="14-1.0"),
    pytest.param(Role.SAC_DB, 5, -1.0, "extra_delay_s", id="5--1.0"),
    pytest.param(Role.SAC_DB, 5, math.nan, "extra_delay_s", id="5-nan"),
    # only the role that answers a phase can sit on its response
    pytest.param(Role.A, 5, 1.0, "answered by", id="non-responder"),
    pytest.param(Role.SAC, 5, 1.0, "answered by", id="initiator"),
    # and each field must be of its type
    pytest.param(Role.SAC_DB, 5, "1", "extra_delay_s", id="text-delay"),
    pytest.param(Role.F, True, 1.0, "phase_index", id="bool-phase"),
    pytest.param("SAC-DB", 5, 1.0, "role must be a Role", id="role-name"),
])
def test_stall_checks_its_own_range(role, phase_index, extra_delay_s, names):
    with pytest.raises(InvalidInput, match=names):
        Stall(role, phase_index, extra_delay_s)


def test_stall_below_timeout_inflates_end_to_end():
    sc = replace(SMALL, timeout_mode=TimeoutMode.per_phase(60))
    sc = inject_stall(sc, Role.SAC_DB, 5, 30.0)
    run = simnet.run(sc)
    session = next(iter(run.sessions.values()))
    assert session.status is SessionStatus.COMPLETED
    base = simnet.run(SMALL)
    base_session = next(iter(base.sessions.values()))
    inflated = session.ended_at - session.started_at
    baseline = base_session.ended_at - base_session.started_at
    assert inflated == pytest.approx(baseline + 30.0, abs=1e-6)


def test_localized_mode_is_the_only_drop_rule():
    # enumerate a large stall at every phase: with per-phase timers off,
    # sessions either complete late or fall to the watchdog, never to a
    # phase timer
    base = replace(SMALL, timeout_mode=TimeoutMode.localized_f(200), horizon_s=900.0)
    for k in range(1, 14):
        run = simnet.run(inject_stall(base, PHASES[k - 1].destination, k, 250.0))
        session = next(iter(run.sessions.values()))
        if 5 <= k <= 11:
            # the cloud-side answer misses F's 200 s window
            assert session.status is SessionStatus.DROPPED, k
            assert str(session.drop_reason) == "localized-timeout", k
        else:
            # stalls before forwarding or after the grant reached F only delay
            assert session.status is SessionStatus.COMPLETED, k


def test_horizon_exceeded_reports_partial():
    sc = replace(SMALL, horizon_s=120.0)  # one phase fits, the rest do not
    run = simnet.run(sc)
    assert run.horizon_exceeded
    session = next(iter(run.sessions.values()))
    assert session.status is SessionStatus.IN_PROGRESS


@pytest.mark.parametrize("scenario", [
    SMALL,
    replace(SMALL, horizon_s=120.0),
    replace(Scenario(), principals=20, timeout_mode=TimeoutMode.localized_f(200),
            stalls=(Stall(Role.CLOUD_B, 10, 250.0),), horizon_s=1000.0, seed=4),
], ids=["completed", "horizon-cut", "stalled-at-f"])
def test_a_run_handing_its_log_to_a_writer_is_the_same_run(scenario):
    handed = []  # the log's length at each hand-off
    sliced = simnet.run(scenario, lambda log: handed.append(len(log)))
    whole = simnet.run(scenario)
    assert sliced.sessions == whole.sessions
    assert sliced.horizon_exceeded is whole.horizon_exceeded is (scenario.horizon_s == 120.0)
    assert aggregate(sliced) == aggregate(whole)
    assert list(csv_lines(sliced.records)) == list(csv_lines(whole.records))
    # one hand-off per slice of the horizon, the last of the whole log
    assert len(handed) == simnet.WRITER_SLICES
    assert handed == sorted(handed) and handed[-1] == len(whole.records)
    assert len(set(handed)) > 2


def test_csv_header_and_shape():
    run = simnet.run(SMALL)
    lines = "".join(csv_lines(run.records)).splitlines()
    assert lines[0] == "time_s,sequence,kind,source,destination,session_id,phase_index,payload_bytes,outcome"
    assert len(lines) == len(run.records) + 1
    assert all(line.count(",") == 8 for line in lines)


# -- timer paths ---------------------------------------------------------------------

TIMED = Scenario(principals=20, session_spread_s=60.0, horizon_s=900.0, seed=11)

# case -> (timeout mode, stalled role, phase, extra delay, sha256 of the event
# log, counts of timer and session-end outcomes)
TIMER_CASES = {
    "phase-timeout": (
        TimeoutMode.per_phase(60), Role.SAC_DB, 5, 90.0,
        "7944375df05bf63a0e43e80cf076f6d58184798508b2ac30d1a9b10aeb3a06c5",
        {"ignored": 152, "expired": 38, "dropped:phase-timeout(5)": 38}),
    "watchdog-expires": (
        TimeoutMode.localized_f(200), Role.CLOUD_B, 10, math.inf,
        "e02c7d75e47357186ff99885a1e6af13ba8f9d5e28f396d4b20ac00168d78f37",
        {"expired": 38, "dropped:localized-timeout": 38}),
    "watchdog-after-grant": (
        TimeoutMode.localized_f(200), Role.F, 12, 250.0,
        "16dd6963b7df9402a7607abe1b040556594fc21cfdb41ab0e961e986b2964045",
        {"ignored": 38, "completed": 38}),
}


@pytest.mark.parametrize("case", TIMER_CASES)
def test_timer_path_logs_pinned(case):
    mode, role, index, delay, digest, outcomes = TIMER_CASES[case]
    run = simnet.run(inject_stall(replace(TIMED, timeout_mode=mode), role, index, delay))
    ends = Counter(r.outcome for r in run.records
                   if r.kind in ("timer-fire", "session-drop", "session-complete"))
    assert ends == outcomes
    assert hashlib.sha256("".join(csv_lines(run.records)).encode()).hexdigest() == digest


# -- tie order ------------------------------------------------------------------------

# Exact ties everywhere: every session starts at one instant, every message
# takes 0 s of network and every request 5 s of service, so timers that
# run out on a multiple of 5 s tie with deliveries, and the sessions tie
# with each other. Ties run in scheduling order.
_ZERO_BYTES = {i: 0 for i in range(1, proto.PHASE_COUNT + 1)}
TIES = Scenario(principals=4, app_start_offset_s=(5.0, 5.0), session_spread_s=0.0,
                connection=ConnectionModel(handshake_rtts=0.0, per_phase_service_s=5.0,
                                           rtt_base_s=0.0),
                topology=Topology(propagation_delay_s=0.0),
                phase_request_bytes=_ZERO_BYTES, phase_response_bytes=_ZERO_BYTES, seed=7)
_CLOUD_B_STALL = (Stall(Role.CLOUD_B, 10, 5.0),)

# case -> (timeout mode, stalls, sha256 of the event log); the first is
# scenarios/ties.json. A phase timer of 5 s runs out as the request
# arrives, before the response that arrives at the same instant; one of
# 10 s ties with the next phase's request, and with phase 10's stalled
# response; the watchdog of 45 s ties with phase 12's grant when phase 10
# is stalled.
TIE_CASES = {
    "per-phase:10 stalled": (TimeoutMode.per_phase(10), _CLOUD_B_STALL,
                             "4f0ee0cfdfa59290baecff0e1286dbcde881b59f958954f7c3a4d2db68110ec0"),
    "per-phase:10": (TimeoutMode.per_phase(10), (),
                     "ef33f64e04040eaa306d654e5be0a015d363e70da99ec85c8956cd20799747e4"),
    "per-phase:5": (TimeoutMode.per_phase(5), (),
                    "ae9fe2bb6952159d8c342e0632d9c1019c9e8289e12370efeefdcd611bab957a"),
    "per-phase:5 stalled": (TimeoutMode.per_phase(5), _CLOUD_B_STALL,
                            "ae9fe2bb6952159d8c342e0632d9c1019c9e8289e12370efeefdcd611bab957a"),
    "localized-f:45": (TimeoutMode.localized_f(45), (),
                       "fdb9a896e1e6c10d6ea9a9e5459f924b12e20681ca8d2daa45312e3107920b2b"),
    "localized-f:45 stalled": (TimeoutMode.localized_f(45), _CLOUD_B_STALL,
                               "7429610dabf04f9a4ea40f55b42426a4074b355f93833a0fcb966b4609d36da4"),
}


@pytest.mark.parametrize("case", TIE_CASES)
def test_tie_order_pinned(case):
    mode, stalls, digest = TIE_CASES[case]
    run = simnet.run(replace(TIES, timeout_mode=mode, stalls=stalls))
    assert hashlib.sha256("".join(csv_lines(run.records)).encode()).hexdigest() == digest


def test_a_response_due_as_its_phase_timer_runs_out_is_late():
    # A per-phase timer is queued when its phase begins, before the delivery
    # of the phase's response exists, so at an exact tie the timer runs first.
    # In TIES a phase takes exactly 5 s: a 5 s limit drops every session in
    # phase 1, and the response, due at that instant, arrives to an ended
    # session; a 10 s limit lets every session complete.
    five = simnet.run(replace(TIES, timeout_mode=TimeoutMode.per_phase(5)))
    ended = {s.session_id.hex(): s.ended_at for s in five.sessions.values()}
    assert {s.drop_reason for s in five.sessions.values()} == {"phase-timeout(1)"}
    late = {r.session_id: (r.time_s, r.outcome) for r in five.records
            if (r.kind, r.phase_index, r.source) == ("deliver", 1, "F")}
    assert late == {sid: (at, ABSORBED) for sid, at in ended.items()}
    ten = simnet.run(replace(TIES, timeout_mode=TimeoutMode.per_phase(10)))
    assert {s.status for s in ten.sessions.values()} == {SessionStatus.COMPLETED}
    assert len(ten.sessions) == len(five.sessions) > 1


def test_ties_scenario_file_is_the_first_tie_case():
    mode, stalls, _ = next(iter(TIE_CASES.values()))
    shipped = load_scenario(Path(__file__).parent.parent / "scenarios" / "ties.json")
    assert shipped == replace(TIES, timeout_mode=mode, stalls=stalls)


def test_late_response_after_drop_is_absorbed():
    # the watchdog drops the session 200 s after F forwards; CloudB's
    # phase-10 answer arrives 250 s late and must not reach any role
    sc = replace(SMALL, timeout_mode=TimeoutMode.localized_f(200), horizon_s=600.0)
    run = simnet.run(inject_stall(sc, Role.CLOUD_B, 10, 250.0))
    session = next(iter(run.sessions.values()))
    assert session.status is SessionStatus.DROPPED
    assert str(session.drop_reason) == "localized-timeout"
    late = [r for r in run.records
            if r.kind == "deliver" and r.phase_index == 10 and r.source == "CloudB"]
    assert [r.outcome for r in late] == ["discarded:session-not-in-progress"]
    assert late[0].time_s > session.ended_at
    assert aggregate(run).tree["violations"] == {role.value: 0 for role in Role}


# -- garbage collection ---------------------------------------------------------------

@pytest.mark.parametrize("scenario", [
    SMALL,
    # the horizon stops the loop with deliveries and starts still queued
    replace(Scenario(), principals=50, horizon_s=200.0),
], ids=["completed", "horizon-cut"])
def test_run_leaves_no_cyclic_garbage(scenario):
    gc.collect()
    run = simnet.run(scenario)
    assert run.horizon_exceeded is (scenario.horizon_s == 200.0)
    del run
    assert gc.collect() == 0


@pytest.mark.parametrize("enabled", [True, False])
def test_run_restores_the_callers_gc_setting(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        simnet.run(SMALL)
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


def test_run_hands_its_objects_to_the_oldest_generation():
    # the loop's objects would otherwise all be young when the collector is
    # enabled again: the first allocation would start a collection that
    # scans them all and leaves them in the middle generation
    assert gc.isenabled()
    run = simnet.run(replace(Scenario(), principals=500))
    assert len(run.records) > 50_000
    assert len(gc.get_objects(0)) + len(gc.get_objects(1)) < 700


def test_run_keeps_the_callers_frozen_objects_frozen():
    gc.collect()
    gc.freeze()
    try:
        frozen = gc.get_freeze_count()
        assert frozen > 0
        simnet.run(SMALL)
        assert gc.get_freeze_count() == frozen
    finally:
        gc.unfreeze()


def test_gc_reenabled_when_a_handler_raises(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("handler failed")

    monkeypatch.setattr(proto, "handle_message", broken)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="handler failed"):
        simnet.run(SMALL)
    assert gc.isenabled()


# -- role slot memory ----------------------------------------------------------------

SUPPRESSED = load_scenario(Path(__file__).parent.parent / "scenarios" / "suppressed.json")

# each case -> whether sessions are still in flight when the run stops
KEPT_SLOT_CASES = {
    "completed": (replace(SMALL, principals=5, sessions_per_principal=2, seed=12), False),
    # the phase-10 response is never sent, and F's watchdog drops each session
    "suppressed": (SUPPRESSED, False),
    # cut off at 500 s, when the watchdog has dropped some of them
    "suppressed-cut": (replace(SUPPRESSED, horizon_s=500.0), True),
    # F's watchdog drops each session before its late phase-10 response arrives
    "late-response": (replace(SMALL, principals=4, timeout_mode=TimeoutMode.localized_f(200),
                              stalls=(Stall(Role.CLOUD_B, 10, 250.0),), horizon_s=1000.0),
                      False),
}


@pytest.mark.parametrize("case", KEPT_SLOT_CASES)
def test_a_run_keeps_the_slots_of_sessions_in_flight_only(case):
    scenario, cut = KEPT_SLOT_CASES[case]
    run = simnet.run(scenario)
    in_flight = {sid for sid, s in run.sessions.items() if s.status is SessionStatus.IN_PROGRESS}
    ended = len(run.sessions) - len(in_flight)
    tables = [set(state.sessions) for state in run.role_states.values()]
    assert len(tables) == len(Role) and ended > 0
    assert all(table <= in_flight for table in tables)
    # the cut run has sessions stalled at phase 10, each with a slot at every role
    assert all(tables) if cut else not in_flight
    if case == "late-response":
        assert {s.status for s in run.sessions.values()} == {SessionStatus.DROPPED}
        absorbed = Counter(r.session_id for r in run.records
                           if r.kind == "deliver" and r.outcome == ABSORBED)
        assert absorbed == {sid.hex(): 1 for sid in run.sessions}


# -- event log memory ----------------------------------------------------------------

def test_records_of_a_session_share_one_id_string():
    sc = replace(SMALL, principals=3, sessions_per_principal=2)
    run = simnet.run(sc)
    by_session: dict[str, set[int]] = {}
    for record in run.records:
        if record.session_id:
            by_session.setdefault(record.session_id, set()).add(id(record.session_id))
    assert set(by_session) == {sid.hex() for sid in run.sessions}
    assert all(len(ids) == 1 for ids in by_session.values())
    # the one extra string is the empty id of the app-start records
    assert len({id(record.session_id) for record in run.records}) <= len(run.sessions) + 1


# -- the log's read view ---------------------------------------------------------------

def test_event_log_reads_as_records():
    run = simnet.run(replace(SMALL, principals=3, sessions_per_principal=2))
    log = run.records
    records = list(log)
    assert len(log) == len(records) > 0
    assert all(type(record) is Record for record in records)
    assert log[0] == records[0] and log[-1] == records[-1]
    assert [log[i] for i in range(-len(log), 0)] == records
    with pytest.raises(IndexError):
        log[len(log)]
    # three typed columns and no Python object per record
    columns = (log.times, log.sessions, log.codes)
    assert all(type(column) is array and len(column) == len(log) for column in columns)
    assert sum(column.itemsize * len(column) for column in columns) <= 20 * len(log)
    assert len(log.shapes) < len(log) / 4


_MODES = st.sampled_from([TimeoutMode.none(), TimeoutMode.per_phase(60),
                          TimeoutMode.per_phase(8), TimeoutMode.localized_f(200),
                          TimeoutMode.localized_f(40)])
# phase -> extra delay of the response stall by the phase's responder
_STALLS = st.dictionaries(st.integers(1, proto.PHASE_COUNT),
                          st.one_of(st.floats(0.0, 300.0), st.just(math.inf)), max_size=3)
_SIZES = st.none() | st.dictionaries(st.integers(1, proto.PHASE_COUNT),
                                     st.integers(0, 10**6), max_size=3)


@settings(max_examples=20, deadline=None)
@given(principals=st.integers(1, 4), mode=_MODES, stalls=_STALLS,
       request_bytes=_SIZES, response_bytes=_SIZES, seed=st.integers(0, 2**32))
@example(principals=2, mode=TimeoutMode.localized_f(200), stalls={10: math.inf},
         request_bytes=None, response_bytes=None, seed=1)
@example(principals=2, mode=TimeoutMode.per_phase(60), stalls={5: 90.0},
         request_bytes={3: 0, 7: 5000}, response_bytes={5: 1}, seed=2)
def test_columnar_csv_matches_per_record_format(principals, mode, stalls, request_bytes,
                                                response_bytes, seed):
    sc = replace(SMALL, principals=principals, session_spread_s=30.0, horizon_s=900.0,
                 seed=seed, timeout_mode=mode, phase_request_bytes=request_bytes,
                 phase_response_bytes=response_bytes,
                 stalls=tuple(Stall(PHASES[k - 1].destination, k, delay)
                              for k, delay in stalls.items()))
    run = simnet.run(sc)
    assert "".join(csv_lines(run.records)) == reference_csv(list(run.records))


# times that repeat, differ in the last printed digit, or are equal but print differently
_TIMES = st.sampled_from([0.0, -0.0, 1.5, 1.5 + 1e-9, 1.5 + 1e-10, 60.25, math.inf, math.nan])


@settings(max_examples=50, deadline=None)
@given(records=st.lists(st.tuples(_TIMES, st.integers(0, 2), st.integers(0, 2)), max_size=30))
@example(records=[(0.0, 1, 0), (-0.0, 1, 0), (0.0, 2, 1)])
def test_csv_lines_format_each_record_time(records):
    log = _hand_built_log(records)
    assert "".join(simnet.csv_lines(log)) == reference_csv(list(log))


def _hand_built_log(records) -> EventLog:
    """A log built by hand: each record is (time, session, shape)."""
    log = EventLog()
    for session in ("aa", "bb"):
        log.add_session(session)
    codes = [log.shape("send", "A", "F", 1, 1024, "ok"), log.shape("deliver", "F", "A", 2, 0, "ok"),
             log.shape("timer-fire", "F", "", None, None, "expired")]
    for time_s, session, shape in records:
        log.times.append(time_s)
        log.sessions.append(session)
        log.codes.append(codes[shape])
    return log


@settings(max_examples=50, deadline=None)
@given(records=st.lists(st.tuples(_TIMES, st.integers(0, 2), st.integers(0, 2)), min_size=1,
                        max_size=30), split=st.integers(1, 30))
@example(records=[(0.0, 1, 0), (-0.0, 1, 0), (-0.0, 2, 1)], split=1)
def test_csv_lines_of_two_ranges_join_to_the_whole(records, split):
    # a log's lines, then those it logs next: only the first range has the
    # header, and each range formats its own first time, also one it shares
    # with the record before it
    log = _hand_built_log(records)
    split = min(split, len(records))
    tail = "".join(csv_lines(log, split))
    assert "".join(csv_lines(_hand_built_log(records[:split]))) + tail == "".join(csv_lines(log))
    assert tail == "".join(reference_csv(list(log)).splitlines(keepends=True)[1 + split:])


# -- the log's account of each session -------------------------------------------------

def assert_log_accounts_for_each_session(run):
    """Each session in the log has one session-start, then at most one end
    record, after which only absorbed deliveries and ignored timer fires
    name it; each deliver answers an earlier send not yet delivered, of the
    same session, phase, source and destination; a session's phases
    complete in order, each once; the sessions the log ends are the ones
    that ended."""
    started, ended = set(), set()
    undelivered = Counter()  # (session, phase, source, destination) -> sends in flight
    phases_done = Counter()  # session -> phases completed
    for record in run.records:
        session = record.session_id
        if record.kind == "session-start":
            assert session not in started, record
            started.add(session)
        elif session:
            assert session in started, record
        if session in ended:
            assert (record.kind, record.outcome) in {("deliver", ABSORBED),
                                                     ("timer-fire", "ignored")}, record
        if record.kind in ("session-complete", "session-drop"):
            ended.add(session)
        elif record.kind in ("send", "deliver"):
            leg = (session, record.phase_index, record.source, record.destination)
            if record.kind == "deliver":
                assert undelivered[leg] > 0, record
            undelivered[leg] += 1 if record.kind == "send" else -1
            if record.outcome == "phase-complete":
                phases_done[session] += 1
                assert record.phase_index == phases_done[session], record
    assert started == {sid.hex() for sid in run.sessions}
    assert ended == {sid.hex() for sid, s in run.sessions.items()
                     if s.status is not SessionStatus.IN_PROGRESS}


# case -> a scenario whose log is audited
AUDITED = {
    "default": Scenario(),
    # the benchmark's faults-1k workload: every session falls to the watchdog
    "faults-1k": Scenario(timeout_mode=TimeoutMode.localized_f(200), horizon_s=1000.0,
                          stalls=(Stall(Role.CLOUD_B, 10, 250.0),)),
    "phase-timeout": inject_stall(replace(TIMED, timeout_mode=TimeoutMode.per_phase(60)),
                                  Role.SAC_DB, 5, 90.0),
}


@pytest.mark.parametrize("case", AUDITED)
def test_log_accounts_for_each_session(case):
    assert_log_accounts_for_each_session(simnet.run(AUDITED[case]))


@settings(max_examples=20, deadline=None)
@given(principals=st.integers(1, 4), mode=_MODES, stalls=_STALLS, request_bytes=_SIZES,
       horizon=st.sampled_from([140.0, 200.0, 400.0, 900.0]), seed=st.integers(0, 2**32))
def test_log_accounts_for_each_session_on_drawn_scenarios(principals, mode, stalls,
                                                          request_bytes, horizon, seed):
    sc = replace(SMALL, principals=principals, session_spread_s=30.0, horizon_s=horizon,
                 seed=seed, timeout_mode=mode, phase_request_bytes=request_bytes,
                 stalls=tuple(Stall(PHASES[k - 1].destination, k, delay)
                              for k, delay in stalls.items()))
    assert_log_accounts_for_each_session(simnet.run(sc))


def test_a_refused_access_ends_the_session():
    # a CloudA that hosts nothing grants nothing, so it has no grant to
    # deliver at phase 9: each session drops there, and the timers of its
    # phases 1 to 8 are ignored
    engine = simnet._Engine(replace(SMALL, principals=3, sessions_per_principal=2,
                                    timeout_mode=TimeoutMode.per_phase(60)))
    engine.roles[Role.CLOUD_A] = RoleState(Role.CLOUD_A)
    engine.setup()
    engine.loop()
    run = engine.result()
    assert_log_accounts_for_each_session(run)
    ends = Counter(r.outcome for r in run.records
                   if r.kind in ("timer-fire", "session-drop", "session-complete"))
    assert ends == {"dropped:access-refused": 6, "ignored": 6 * 8}
    report = aggregate(run)
    assert report.tree["sessions"] == {"started": 6, "completed": 0, "dropped": 6,
                                       "in_flight_at_horizon": 0,
                                       "dropped_by_reason": {"access-refused": 6}}


# -- the event calendar -----------------------------------------------------------------

# one queue per phase leg, one for the run's timers, one each for app and session starts
QUEUES = 2 * proto.PHASE_COUNT + 3


def assert_heap_holds_queue_heads(engine):
    """The heap holds one entry for the head of each non-empty queue, and no
    more; the queues are those ``CheckedEngine`` saw enter the calendar."""
    queues = [queue for _, _, queue, _ in engine.heap]
    assert len(queues) == len({id(queue) for queue in queues}) <= QUEUES
    for time, seq, queue, _ in engine.heap:
        assert queue and queue[0][:2] == (time, seq)
    pending = {id(queue) for queue in engine.queues.values() if queue}
    assert pending <= {id(queue) for queue in queues}


class CheckedEngine(simnet._Engine):
    """The engine, which records each handled event's (time, seq) and checks
    the calendar before each handler runs: every handler it queues, the
    phases' wired ones too, is wrapped as it enters through ``schedule``,
    and every queue is kept, by id, as it does."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.handled = []
        self.checked = {}
        self.queues = {}

    def schedule(self, queue, handler, event):
        self.queues[id(queue)] = queue
        if handler not in self.checked:
            def checked(event):
                # the event runs before every event still pending
                assert all(event[:2] < (time, seq) for time, seq, _, _ in self.heap)
                self.handled.append(event[:2])
                assert_heap_holds_queue_heads(self)
                handler(event)
            self.checked[handler] = checked
        super().schedule(queue, self.checked[handler], event)


def run_checked(scenario):
    engine = CheckedEngine(scenario)
    engine.setup()
    assert_heap_holds_queue_heads(engine)
    engine.loop()
    handled = engine.handled
    assert all(a < b for a, b in zip(handled, handled[1:]))
    # each handled event logs one record that is neither a send nor an end
    assert len(handled) == sum(record.kind not in ("send", "session-complete", "session-drop")
                               for record in engine.events)
    return engine


def test_heap_holds_one_entry_per_queue():
    engine = run_checked(inject_stall(replace(TIMED, timeout_mode=TimeoutMode.per_phase(60)),
                                      Role.SAC_DB, 5, 90.0))
    assert hashlib.sha256("".join(csv_lines(engine.events)).encode()).hexdigest() == (
        TIMER_CASES["phase-timeout"][4])


_TIE_MODES = _MODES | st.sampled_from([TimeoutMode.per_phase(5), TimeoutMode.per_phase(10),
                                       TimeoutMode.localized_f(45)])
# phase -> extra delay of the response stall, often a multiple of the 5 s
# service time, so that it ties
_TIE_STALLS = st.dictionaries(st.integers(1, proto.PHASE_COUNT),
                              st.sampled_from([0.0, 5.0, 10.0, math.inf]) | st.floats(0.0, 300.0),
                              max_size=3)


@settings(max_examples=30, deadline=None)
@given(principals=st.integers(1, 4), ties=st.booleans(), mode=_TIE_MODES, stalls=_TIE_STALLS,
       horizon=st.sampled_from([130.0, 160.0, 900.0]), seed=st.integers(0, 2**32))
@example(principals=4, ties=True, mode=TimeoutMode.localized_f(45), stalls={10: 5.0},
         horizon=900.0, seed=7)
def test_handlers_run_in_time_and_sequence_order(principals, ties, mode, stalls, horizon, seed):
    # exact ties across sessions and between timers and deliveries, or
    # none; the shorter horizons cut the run
    base = TIES if ties else replace(SMALL, session_spread_s=30.0)
    run_checked(replace(base, principals=principals, horizon_s=horizon, seed=seed,
                        timeout_mode=mode,
                        stalls=tuple(Stall(PHASES[k - 1].destination, k, delay)
                                     for k, delay in stalls.items())))


def test_each_session_starts_as_its_keyword_form_and_carries_its_requester():
    # a session start carries its principal's Requester, and the session it
    # makes, built by position, equals the keyword form with the defaults
    scenario = replace(SMALL, principals=3, sessions_per_principal=2)
    engine = simnet._Engine(scenario)
    engine.setup()
    started = []
    engine.begin = lambda session, now, at: started.append((session, now))
    engine.loop()  # app and session starts only: no phase begins
    assert len(started) == 6 and list(engine.sessions.values()) == [s for s, _ in started]
    for session, now in started:
        assert type(session) is SessionState
        assert session == SessionState(session_id=session.session_id, requester=session.requester,
                                       resources=scenario.resources, started_at=now)
    assert Counter(session.requester.tenant_id for session, _ in started) == {
        tenant: 2 for tenant in engine.requesters}
    assert all(session.requester is engine.requesters[session.requester.tenant_id]
               for session, _ in started)


def test_an_event_queued_out_of_time_order_raises():
    # a leg's messages share one delay and a run's timers one limit, so
    # nothing is queued ahead of an earlier event; were something, the
    # engine would be at fault
    engine = simnet._Engine(SMALL)
    engine.setup()
    sid = b"\x01" * 16
    session = SessionState(session_id=sid, requester=engine.requesters["user-0000"],
                           resources=SMALL.resources)
    engine.begin(session, 10.0, 1)
    engine.begin(session, 10.0, 1)  # a tie runs in scheduling order
    # phase 1's begin sent both requests on phase 1's request leg, whose
    # queue is due before the app and session starts
    queue = engine.heap[0][2]
    assert [event[2].phase_index for event in queue] == [1, 1]
    with pytest.raises(RuntimeError, match="out of time order"):
        engine.begin(session, 9.0, 1)
    engine.schedule(engine.timers, engine._on_timer,
                    (20.0, next(engine.event_seq), sid, None, 1))
    with pytest.raises(RuntimeError, match="out of time order"):
        engine.schedule(engine.timers, engine._on_timer,
                        (19.0, next(engine.event_seq), sid, None, 1))


# -- reading the log back -----------------------------------------------------------------

def _read_back(log: EventLog) -> tuple[str, EventLog]:
    """The log's CSV text, and the log read back from a file that holds it."""
    text = "".join(csv_lines(log))
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "events.csv"
        path.write_text(text)
        return text, simnet.read_event_log(path)


@settings(max_examples=30, deadline=None)
@given(principals=st.integers(1, 4), ties=st.booleans(), mode=_TIE_MODES, stalls=_TIE_STALLS,
       horizon=st.sampled_from([130.0, 160.0, 900.0]), seed=st.integers(0, 2**32),
       signs=st.lists(st.booleans(), max_size=4))
@example(principals=3, ties=True, mode=TimeoutMode.localized_f(45), stalls={10: 5.0},
         horizon=900.0, seed=7, signs=[True, False, True])
def test_read_event_log_inverts_csv_lines(principals, ties, mode, stalls, horizon, seed, signs):
    # exact ties, or none; with the network up at 0 s each app start logs at
    # 0.0, and those that ``signs`` picks are given the sign of -0.0, which
    # prints apart
    base = (replace(TIES, network_start_offset_s=0.0, app_start_offset_s=(0.0, 0.0)) if ties
            else replace(SMALL, session_spread_s=30.0))
    log = simnet.run(replace(base, principals=principals, horizon_s=horizon, seed=seed,
                             timeout_mode=mode,
                             stalls=tuple(Stall(PHASES[k - 1].destination, k, delay)
                                          for k, delay in stalls.items()))).records
    zeros = [i for i, time_s in enumerate(log.times) if time_s == 0.0]
    for i, negative in zip(zeros, signs):
        log.times[i] = -0.0 if negative else 0.0
    text, read = _read_back(log)
    assert "".join(csv_lines(read)) == text
    assert [record[1:] for record in read] == [record[1:] for record in log]
    assert all(abs(a - b) <= 5e-10 for a, b in zip(read.times, log.times))
    assert _read_back(read)[1].times == read.times  # read as printed, so it stays put


_SID = "5e" * 16  # a session id as a run writes one
# line (0: the last) -> what replaces it in a valid log's text (None: cut its newline off)
_MALFORMED = {
    "header": (1, "time_s,sequence\n"),
    "fields": (3, "0.000000000,1,app-start,A,,,,ok\n"),
    "time": (3, "1.5x,1,app-start,A,,,,,ok\n"),
    "nan-time": (3, "nan,1,app-start,A,,,,,ok\n"),
    "sequence": (3, "200.000000000,7,app-start,A,,,,,ok\n"),
    "time-order": (3, "-1.000000000,1,app-start,A,,,,,ok\n"),
    "negative-time": (2, "-1.000000000,0,app-start,A,,,,,ok\n"),
    "phase": (3, f"200.000000000,1,send,A,F,{_SID},one,1024,ok\n"),
    # record shapes that no run logs, which the fold cannot read
    "phase-14": (3, f"200.000000000,1,deliver,F,A,{_SID},14,1024,phase-complete\n"),
    "phase-0": (3, f"200.000000000,1,send,A,F,{_SID},0,1024,ok\n"),
    "no-phase": (3, f"200.000000000,1,deliver,F,A,{_SID},,1024,ok\n"),
    "no-size": (3, f"200.000000000,1,send,A,F,{_SID},1,,ok\n"),
    "negative-size": (3, f"200.000000000,1,send,A,F,{_SID},1,-8,ok\n"),
    "no-role": (3, f"200.000000000,1,send,Q,F,{_SID},1,1024,ok\n"),
    "one-end-twice": (3, f"200.000000000,1,send,F,F,{_SID},1,1024,ok\n"),
    "ends-of-another-phase": (3, f"200.000000000,1,deliver,F,SAC,{_SID},2,1024,ok\n"),
    "no-kind": (3, f"200.000000000,1,sned,A,F,{_SID},1,1024,ok\n"),
    # outcomes that no transition gives, which the fold would miscount
    "deliver-outcome": (3, f"200.000000000,1,deliver,F,A,{_SID},1,1024,phase-completed\n"),
    "send-outcome": (3, f"200.000000000,1,send,A,F,{_SID},1,1024,granted\n"),
    "discard-without-reason": (3, f"200.000000000,1,deliver,A,F,{_SID},1,1024,discarded:\n"),
    # an outcome of another leg: a response only completes its phase, and
    # phase 8's cloud grants or refuses
    "response-granted": (3, f"200.000000000,1,deliver,F,A,{_SID},1,1024,granted\n"),
    "phase-8-request-valid": (3, f"200.000000000,1,deliver,SAC-SH,CloudA,{_SID},8,1024,valid\n"),
    # an end or a timer whose outcome its kind does not give: a drop read
    # as completed would fold to a drop reason sliced from "completed"
    "drop-completed": (3, f"200.000000000,1,session-drop,F,,{_SID},13,,completed\n"),
    "drop-without-reason": (3, f"200.000000000,1,session-drop,F,,{_SID},13,,dropped:\n"),
    "complete-banana": (3, f"200.000000000,1,session-complete,F,,{_SID},13,,banana\n"),
    "timer-completed": (3, f"200.000000000,1,timer-fire,F,,{_SID},13,,completed\n"),
    # a record of no message whose ends, phase or size no run logs, in place
    # of the session start (line 3) or of the session's completion, sequence
    # 54, the last line
    "timer-of-no-role": (0, f"200.000000000,54,timer-fire,Q,X,{_SID},99,7,expired\n"),
    "complete-with-a-destination": (0, f"200.000000000,54,session-complete,SAC,F,{_SID},3,9,"
                                       "completed\n"),
    "drop-at-phase-13": (0, f"200.000000000,54,session-drop,,,{_SID},13,,dropped:x\n"),
    "complete-at-phase-12": (0, f"200.000000000,54,session-complete,F,,{_SID},12,,completed\n"),
    "app-start-with-a-phase": (3, "200.000000000,1,app-start,A,,,4,,ok\n"),
    "session-start-from-F": (3, f"200.000000000,1,session-start,F,,{_SID},,,ok\n"),
    "timer-with-a-size": (0, f"200.000000000,54,timer-fire,A,,{_SID},1,8,ignored\n"),
    "phase-1-timer-at-F": (0, f"200.000000000,54,timer-fire,F,,{_SID},1,,ignored\n"),
    # a session id that no run gives: an app start names none, any other
    # record 32 lowercase hex digits
    "app-start-naming-a-session": (2, f"100.000000000,0,app-start,A,,{_SID},,,ok\n"),
    "send-with-no-id": (4, "111.734052361,2,send,A,F,,1,1024,ok\n"),
    "id-not-hex": (4, "111.734052361,2,send,A,F,zz,1,1024,ok\n"),
    "id-of-31-digits": (4, f"111.734052361,2,send,A,F,{_SID[:31]},1,1024,ok\n"),
    "id-in-upper-case": (4, f"111.734052361,2,send,A,F,{_SID.upper()},1,1024,ok\n"),
    "cut-short": (0, None),
}


@pytest.mark.parametrize("case", _MALFORMED)
def test_read_event_log_names_a_malformed_line(case, tmp_path):
    lines = "".join(csv_lines(simnet.run(SMALL).records)).splitlines(keepends=True)
    line, replacement = _MALFORMED[case]
    line = line or len(lines)
    lines[line - 1] = lines[line - 1][:-1] if replacement is None else replacement
    path = tmp_path / "events.csv"
    path.write_text("".join(lines))
    with pytest.raises(ScenarioParseError, match=f"^{re.escape(str(path))}: line {line}: "):
        simnet.read_event_log(path)


def test_read_event_log_reads_a_drop_during_phase_one(tmp_path):
    # a session dropped while phase 1 is open logs phase 0, the phases done
    stalled = replace(SMALL, timeout_mode=TimeoutMode.per_phase(10),
                      stalls=(Stall(Role.F, 1, 50.0),))
    log = simnet.run(stalled).records
    assert ("session-drop", "", "", 0, None, "dropped:phase-timeout(1)") in log.shapes
    text, read = _read_back(log)
    assert "".join(csv_lines(read)) == text


@pytest.mark.parametrize("content", [None, b"", b"\xff\xfe\x00"],
                         ids=["missing", "empty", "binary"])
def test_read_event_log_names_a_file_it_cannot_read(content, tmp_path):
    path = tmp_path / "events.csv"
    if content is not None:
        path.write_bytes(content)
    with pytest.raises(ScenarioParseError, match=f"^{re.escape(str(path))}: "):
        simnet.read_event_log(path)
    with pytest.raises(ScenarioParseError, match="cannot read"):
        simnet.read_event_log(tmp_path)  # a directory
