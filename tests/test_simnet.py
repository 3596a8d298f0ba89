"""Tests for the discrete-event simulator: topology, timing, determinism."""

import gc
import hashlib
import math
from array import array
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossrealm import protocol as proto
from crossrealm import simnet
from crossrealm.errors import DisallowedPair, InvalidInput
from crossrealm.harness import Scenario, aggregate
from crossrealm.protocol import (
    Role,
    RoleState,
    SessionStatus,
    TimeoutMode,
    phase_spec,
)
from crossrealm.simnet import (
    ABSORBED,
    LOG_HEADER,
    ConnectionModel,
    Record,
    Stall,
    Topology,
    inject_stall,
    records_to_csv,
    transmit_components,
)

SMALL = Scenario(principals=1, sessions_per_principal=1, session_spread_s=1.0,
                 horizon_s=400.0, seed=3)


# -- topology -----------------------------------------------------------------

def test_default_topology_nodes_and_af_aggregate():
    topo = Topology()
    assert topo.nodes == {"A", "SW1", "SW2", "F", "SAC", "SAC-DB", "SAC-SH",
                          "CloudA", "CloudB"}
    # the principal-to-front-end connection aggregates eight gigabit links
    assert topo.path_bandwidth_bps("A", "F") == 8e9
    assert len(topo.path("A", "F")) == 3  # A-SW1, SW1-SW2, SW2-F


def test_destination_preferences():
    topo = Topology()
    assert topo.allowed("A", "F")
    assert not topo.allowed("A", "SAC")
    assert not topo.allowed("A", "CloudA")
    assert topo.allowed("F", "SAC")
    assert topo.allowed("SAC-SH", "F")
    assert topo.allowed("A", "A")  # recursive self-preference


def test_every_node_reachable():
    topo = Topology()
    for a in topo.nodes:
        for b in topo.nodes:
            assert topo.path(a, b) is not None
            if a != b:
                assert len(topo.path(a, b)) >= 1


def test_link_count_overrides():
    topo = Topology(link_counts={("A", "SW1"): 2})
    assert topo.path_bandwidth_bps("A", "F") == 2e9
    for link_counts in ({("A", "F"): 2}, {("A", "SW1"): 0}, {("A", "SW1"): 2, ("SW1", "A"): 3},
                        {("A", "SW1"): "3"}, {("A", "SW1"): 2.5}, {("A", "SW1"): True},
                        {("A", "SW1"): 10**400}):
        # no such link, too few, one link named twice, a count that is no whole
        # number, or one too large for a float
        with pytest.raises(InvalidInput):
            Topology(link_counts=link_counts)


# each protocol pair -> its hop count and default bottleneck bandwidth
ROUTES = [("A", "F", 3, 8e9), ("F", "SAC", 2, 4e9), ("SAC", "SAC-DB", 2, 4e9),
          ("SAC", "SAC-SH", 2, 4e9), ("SAC-SH", "CloudA", 2, 4e9),
          ("SAC-SH", "CloudB", 2, 4e9), ("SAC-SH", "F", 2, 4e9)]


@pytest.mark.parametrize("source, destination, hops, default_bps", ROUTES)
def test_each_pair_routes_over_both_uplinks(source, destination, hops, default_bps):
    # one gigabit link on the destination's uplink is the new bottleneck both ways
    narrowed = Topology(link_counts={("SW2", destination): 1})
    for a, b in ((source, destination), (destination, source)):
        assert len(Topology().path(a, b)) == hops
        assert Topology().path_bandwidth_bps(a, b) == default_bps
        assert narrowed.path_bandwidth_bps(a, b) == 1e9


def test_a_path_to_itself_costs_only_the_handshake():
    # the pair is allowed (self-preference) and crosses no link: no
    # serialization, no propagation, only the handshake's round trips
    model = ConnectionModel()
    assert Topology().path_bandwidth_bps("A", "A") == math.inf
    assert transmit_components(1024, "A", "A", model, Topology()) == (
        1.5 * model.rtt_base_s, 1.5 * model.rtt_base_s + model.per_phase_service_s)


@pytest.mark.parametrize("link_counts", [{"ABC": 2}, {("A",): 2}, [1], [], "A-SW1"],
                         ids=["three-letter-key", "one-node-key", "list", "empty-list", "text"])
def test_link_counts_of_the_wrong_shape_rejected(link_counts):
    # a mapping keyed by node pairs, or nothing; never a raw ValueError or AttributeError
    with pytest.raises(InvalidInput):
        Topology(link_counts=link_counts)


def test_negative_propagation_delay_rejected():
    # a negative delay would deliver messages before they are sent
    for delay in (-1.0, math.nan, math.inf, True):
        with pytest.raises(InvalidInput):
            Topology(propagation_delay_s=delay)


# -- transmit ------------------------------------------------------------------

def bare_wire():
    """Single-link-width path with no propagation: pure serialization."""
    topo = Topology(
        propagation_delay_s=0.0,
        link_counts={("A", "SW1"): 1, ("SW1", "SW2"): 1, ("SW2", "F"): 1})
    model = ConnectionModel(handshake_rtts=0.0, per_phase_service_s=0.0, rtt_base_s=0.0)
    return topo, model


def test_transmit_serialization_oracle():
    # 4096 bytes over 1 Gbps = 32.768 microseconds (arithmetic oracle)
    topo, model = bare_wire()
    offset = transmit_components(4096, "A", "F", model, topo)[1]
    assert offset == pytest.approx(3.2768e-05, rel=1e-12)


def test_transmit_zero_payload_pure_propagation():
    topo = Topology(
        propagation_delay_s=1e-5,
        link_counts={("A", "SW1"): 1, ("SW1", "SW2"): 1, ("SW2", "F"): 1})
    model = ConnectionModel(handshake_rtts=0.0, per_phase_service_s=0.0, rtt_base_s=0.0)
    offset = transmit_components(0, "A", "F", model, topo)[1]
    assert offset == pytest.approx(3e-05, rel=1e-12)  # three hops of propagation


def test_transmit_default_calibration_near_five_seconds():
    topo = Topology()
    model = ConnectionModel()
    offset = transmit_components(1024, "A", "F", model, topo)[1]
    assert 4.25 <= offset <= 5.75  # per-phase delivery consistent with ~5 s per phase


def test_transmit_disallowed_pair():
    topo = Topology()
    with pytest.raises(DisallowedPair):
        transmit_components(1024, "A", "SAC", ConnectionModel(), topo)


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
    csv1 = records_to_csv(simnet.run(SMALL).records)
    csv2 = records_to_csv(simnet.run(SMALL).records)
    assert csv1 == csv2


def test_different_seed_differs():
    csv1 = records_to_csv(simnet.run(SMALL).records)
    csv2 = records_to_csv(simnet.run(replace(SMALL, seed=4)).records)
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
                 topology=Topology(link_counts={("SW2", "SAC"): 1, ("A", "SW1"): 2}))
    sc = inject_stall(sc, Role.CLOUD_A, 8, 2.5)
    run = simnet.run(sc)
    topo = sc.topology
    sends = {}
    networks = []
    checked = 0
    for r in run.records:
        if r.kind not in ("send", "deliver"):
            continue
        request = r.source == phase_spec(r.phase_index).source.value
        network, offset = transmit_components(
            r.payload_bytes, r.source, r.destination,
            sc.connection, topo, service_s=None if request else 0.0)
        key = (r.session_id, r.phase_index, r.source, r.destination)
        if r.kind == "send":
            sends[key] = r.time_s
            networks.append(network)
        else:
            stall = 2.5 if (r.source, r.phase_index) == ("CloudA", 8) else 0.0
            assert r.time_s - sends.pop(key) == pytest.approx(offset + stall, abs=1e-9), key
            checked += 1
    assert checked == len(networks) == 6 * 26 and not sends
    assert run.max_network_delay_s == max(networks)


def test_each_session_is_minted_for_its_requester():
    run = simnet.run(replace(SMALL, principals=5, sessions_per_principal=2, seed=12))
    completed = [s for s in run.sessions.values() if s.status is SessionStatus.COMPLETED]
    assert len(completed) == 10
    assert len({s.requester.tenant_id for s in completed}) == 5
    for session in completed:
        tenant = session.requester.tenant_id
        keyset = run.role_states[Role.SAC].sessions[session.session_id].keyset
        assert set(keyset.keys) == {tenant}
        held = run.role_states[Role.A].sessions[session.session_id].requester_key
        assert held == keyset.keys[tenant]


def test_pair_enforcement_in_log():
    topo = Topology()
    run = simnet.run(replace(SMALL, principals=2, sessions_per_principal=1, seed=6))
    for r in run.records:
        if r.kind in ("send", "deliver"):
            assert topo.allowed(r.source, r.destination), (r.source, r.destination)


def test_network_delay_component_bound():
    run = simnet.run(SMALL)
    assert 0.0 < run.max_network_delay_s < 0.06


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
        run = simnet.run(inject_stall(base, phase_spec(k).destination, k, 250.0))
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


def test_csv_header_and_shape():
    run = simnet.run(SMALL)
    lines = records_to_csv(run.records).splitlines()
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
    assert hashlib.sha256(records_to_csv(run.records).encode()).hexdigest() == digest


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

def test_run_leaves_no_cyclic_garbage():
    gc.collect()
    simnet.run(SMALL)
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


def test_gc_reenabled_when_a_handler_raises(monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("handler failed")

    monkeypatch.setattr(proto, "handle_message", broken)
    assert gc.isenabled()
    with pytest.raises(RuntimeError, match="handler failed"):
        simnet.run(SMALL)
    assert gc.isenabled()


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


def reference_csv(records: list[Record]) -> str:
    """The event log formatted one Record at a time, as it was before the
    columnar log."""
    lines = [",".join(LOG_HEADER) + "\n"]
    for sequence, record in enumerate(records):
        time_s, kind, source, destination, session_id, phase, size, outcome = record
        lines.append(f"{time_s:.9f},{sequence},{kind},{source},{destination},{session_id},"
                     f"{'' if phase is None else phase},{'' if size is None else size},{outcome}\n")
    return "".join(lines)


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
                 stalls=tuple(Stall(phase_spec(k).destination, k, delay)
                              for k, delay in stalls.items()))
    run = simnet.run(sc)
    assert records_to_csv(run.records) == reference_csv(list(run.records))


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
                 stalls=tuple(Stall(phase_spec(k).destination, k, delay)
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
