"""Tests for the 13-phase approval protocol state machines."""

from dataclasses import replace

import pytest

from crossrealm import keys as keylib
from crossrealm import protocol as proto
from crossrealm import simnet
from crossrealm.harness import Scenario
from crossrealm.protocol import (
    MessageKind,
    ProtocolMessage,
    Requester,
    Role,
    SessionState,
    SessionStatus,
    TimeoutMode,
    advance_phase,
    begin_phase,
    grant_access,
    handle_message,
    initial_role_states,
    localized_timeout_at_f,
    on_timeout,
    phase_spec,
    protocol_table,
)
from crossrealm.vault import Vault

META = {"spouse": "alice", "pet": "rex", "first_school": "hill"}


def registry():
    vault = Vault()
    for cloud in ("CloudA", "CloudB", "CloudC"):
        vault.register_cloud(cloud, b"secret-" + cloud.encode())
    vault.register_subdomain("CloudA", "bi")
    vault.register_subdomain("CloudB", "bi")
    vault.register_subdomain("CloudC", "analysts")
    idr, ids, _ = vault.register_tenant("CloudC", "analysts", "u1", {}, META)
    return vault, Requester(tenant_id="u1", idr=idr, ids=ids)


def fresh_session(requester, sid=b"\x10" * 16):
    return SessionState(session_id=sid, requester=requester, principal="p1",
                        resources=("R1", "R2"), started_at=0.0)


class Driver:
    """Minimal in-order message pump for driving the state machines."""

    def __init__(self, vault, requester):
        self.vault = vault
        self.roles = initial_role_states()
        self.session = fresh_session(requester)
        self.trace = []  # (phase, kind, outcome)

    def run_phase(self, index):
        spec = phase_spec(index)
        result = begin_phase(self.roles[spec.source], spec, self.session, self.vault)
        self.roles[spec.source] = result.state
        if result.minted is not None:
            self.session = replace(self.session, idsess=result.minted)
        if result.drop_reason is not None:
            self.session = replace(self.session, status=SessionStatus.DROPPED,
                                   drop_reason=result.drop_reason)
            return
        assert result.outgoing, f"phase {index} produced no request"
        queue = list(result.outgoing)
        while queue:
            msg = queue.pop(0)
            res = handle_message(self.roles[msg.destination], msg, self.vault)
            self.roles[msg.destination] = res.state
            self.trace.append((msg.phase_index, msg.kind, res.outcome))
            assert not res.discarded, (msg.phase_index, res.outcome)
            queue.extend(res.outgoing)
            if msg.kind is MessageKind.RESPONSE and res.outcome == "phase-complete":
                self.session = advance_phase(self.session)

    def run_all(self):
        k = 1
        while self.session.status is SessionStatus.IN_PROGRESS and k <= proto.PHASE_COUNT:
            self.run_phase(k)
            k += 1


# -- the phase table ---------------------------------------------------------

def test_table_has_thirteen_sequential_phases():
    table = protocol_table()
    assert len(table) == 13
    assert [s.index for s in table] == list(range(1, 14))


def test_table_first_row():
    spec = protocol_table()[0]
    assert (spec.source, spec.destination) == (Role.A, Role.F)
    assert spec.name == "Secure (Request, R1, R2)"
    assert spec.request_bytes == 1024


def test_table_last_row():
    spec = protocol_table()[12]
    assert (spec.source, spec.destination) == (Role.F, Role.A)
    assert spec.name == "Secure (Access, R1, R2): Key (IDsess)"


def test_table_timeout_modes():
    # one table serves every policy: the engine arms a timer per phase only
    # in per-phase mode, and the localized watchdog lives at F
    one = Scenario(principals=1, sessions_per_principal=1, session_spread_s=1.0,
                   horizon_s=400.0, seed=3)

    def timer_phases(mode):
        run = simnet.run(replace(one, timeout_mode=mode))
        return [r.phase_index for r in run.records if r.kind == "timer-fire"]

    assert timer_phases(TimeoutMode.none()) == []
    assert timer_phases(TimeoutMode.per_phase(60)) == list(range(1, 14))
    assert timer_phases(TimeoutMode.localized_f(200)) == [None]


def test_table_byte_assignment():
    table = protocol_table()
    requesting = {1, 2, 4, 5, 8, 10}
    for spec in table:
        assert spec.request_bytes == (1024 if spec.index in requesting else 4096)
        assert spec.response_bytes == 1024


def test_timeout_mode_parse_round_trip():
    for text in ("none", "per-phase:60", "localized-f:200"):
        assert TimeoutMode.parse(text).encode() == text
    with pytest.raises(Exception):
        TimeoutMode.parse("sometimes")


# -- full scripted run ----------------------------------------------------------

def test_full_run_completes_with_granted_key():
    vault, requester = registry()
    driver = Driver(vault, requester)
    driver.run_all()

    assert driver.session.status is SessionStatus.COMPLETED
    assert driver.session.current_phase == 13
    assert driver.session.idsess is not None

    # phases complete in strictly increasing order, 1..13 exactly once
    completions = [p for p, kind, outcome in driver.trace
                   if kind is MessageKind.RESPONSE and outcome == "phase-complete"]
    assert completions == list(range(1, 14))

    # principal ends up holding the session key the clouds accept via SAC-SH
    held = driver.roles[Role.A].sessions[driver.session.session_id].requester_key
    assert held is not None
    assert keylib.verify_session_key(held, driver.session.idsess)
    assert grant_access(driver.roles[Role.CLOUD_A], Role.SAC_SH, held, "R1")
    assert grant_access(driver.roles[Role.CLOUD_B], Role.SAC_SH, held, "R2")
    # both clouds granted during the run
    assert ("R1",) == driver.roles[Role.CLOUD_A].sessions[driver.session.session_id].grants
    assert ("R2",) == driver.roles[Role.CLOUD_B].sessions[driver.session.session_id].grants


def test_invalid_credentials_drop_session():
    vault, requester = registry()
    from crossrealm.keys import KeyPart, KeyRole
    bogus = Requester(tenant_id="u1", idr=requester.idr,
                      ids=KeyPart(b"\x5a" * 32, KeyRole.SUBDOMAIN))
    driver = Driver(vault, bogus)
    driver.run_all()
    assert driver.session.status is SessionStatus.DROPPED
    assert driver.session.drop_reason.code == "invalid-credentials"
    assert driver.session.current_phase == 6  # verdict reported, then dropped
    assert ("invalid" in [o for _, _, o in driver.trace])


# case -> (receiving role, phase, kind, source if not the phase's own,
# whether the session is the one phase 1 opened or an unknown one)
DISCARDS = {
    "misaddressed": (Role.SAC, 1, MessageKind.REQUEST, None, True),
    "wrong-source": (Role.F, 1, MessageKind.REQUEST, Role.SAC_SH, False),
    "not-via-front-end": (Role.SAC, 4, MessageKind.REQUEST, Role.A, False),
    "duplicate-session": (Role.F, 1, MessageKind.REQUEST, None, True),
    "unknown-session-request": (Role.SAC, 6, MessageKind.REQUEST, None, False),
    "unknown-session-response": (Role.SAC, 5, MessageKind.RESPONSE, None, False),
    "out-of-order-request": (Role.F, 3, MessageKind.REQUEST, None, True),
    "out-of-order-response": (Role.A, 1, MessageKind.RESPONSE, None, True),
}


@pytest.mark.parametrize("case", DISCARDS)
def test_handle_message_discards(case):
    role, index, kind, source, known = DISCARDS[case]
    vault, requester = registry()
    driver = Driver(vault, requester)
    driver.run_phase(1)
    spec = phase_spec(index)
    request = kind is MessageKind.REQUEST
    msg = ProtocolMessage(
        session_id=driver.session.session_id if known else b"\x77" * 16,
        phase_index=index, kind=kind,
        source=source or (spec.source if request else spec.destination),
        destination=spec.destination if request else spec.source,
        payload_fields={},
        payload_bytes=spec.request_bytes if request else spec.response_bytes)
    state = driver.roles[role]
    result = handle_message(state, msg, vault)
    assert result.outcome == "discarded:" + case.removesuffix("-request").removesuffix("-response")
    assert not result.outgoing
    assert result.state.violations == 1
    # a discarded message never records or changes a session
    assert result.state.sessions == state.sessions


def test_handle_message_is_pure():
    vault, requester = registry()
    driver = Driver(vault, requester)
    driver.run_phase(1)
    state = driver.roles[Role.F]
    snapshot = repr(state)
    # craft the phase-2 request F would send; feed it to A twice
    result = begin_phase(state, phase_spec(2), driver.session, vault)
    req = result.outgoing[0]
    r1 = handle_message(driver.roles[Role.A], req, vault)
    r2 = handle_message(driver.roles[Role.A], req, vault)
    assert r1 == r2
    assert repr(state) == snapshot  # input state untouched


# -- phase advancement ------------------------------------------------------------

def test_advance_phase_in_order():
    _, requester = registry()
    session = fresh_session(requester)
    for _ in (1, 2, 3):
        session = advance_phase(session)
    assert session.current_phase == 3
    assert session.status is SessionStatus.IN_PROGRESS


def test_advance_phase_thirteen_completes():
    _, requester = registry()
    session = fresh_session(requester)
    for _ in range(1, 14):
        session = advance_phase(session)
    assert session.status is SessionStatus.COMPLETED
    assert session.current_phase == 13


def test_no_transition_after_drop():
    _, requester = registry()
    session = fresh_session(requester)
    session = advance_phase(session)
    dropped = on_timeout(session, 2)
    assert dropped.status is SessionStatus.DROPPED
    # every transition leaves a finished session as it is
    assert advance_phase(dropped) is dropped
    assert on_timeout(dropped, 2) is dropped
    assert localized_timeout_at_f(dropped) is dropped


# -- timeouts ----------------------------------------------------------------------

def test_on_timeout_drops_past_limit():
    _, requester = registry()
    session = fresh_session(requester)
    dropped = on_timeout(session, 5)
    assert dropped.status is SessionStatus.DROPPED
    assert str(dropped.drop_reason) == "phase-timeout(5)"


def test_localized_timeout_boundaries():
    # the watchdog fires 200 s after F forwards; criterion 8 checks that
    # the drop lands on that boundary
    _, requester = registry()
    session = fresh_session(requester)
    dropped = localized_timeout_at_f(session)
    assert dropped.status is SessionStatus.DROPPED
    assert str(dropped.drop_reason) == "localized-timeout"


# -- gatekeeping at the clouds ------------------------------------------------------

def granted_setup():
    vault, requester = registry()
    driver = Driver(vault, requester)
    driver.run_all()
    key = driver.roles[Role.A].sessions[driver.session.session_id].requester_key
    return vault, driver, key


def test_grant_access_only_for_session_handler():
    _, driver, key = granted_setup()
    cloud = driver.roles[Role.CLOUD_A]
    assert grant_access(cloud, Role.SAC_SH, key, "R1")
    assert not grant_access(cloud, Role.A, key, "R1")  # direct presentation refused
    assert not grant_access(cloud, Role.F, key, "R1")
    assert not grant_access(cloud, Role.SAC_SH, key, "R2")  # not hosted here


def test_grant_access_stale_generation_refused():
    vault, driver, key = granted_setup()
    cloud = driver.roles[Role.CLOUD_A]
    refreshed = keylib.refresh_session(
        driver.session.idsess, [("u1", "CloudC", "analysts")], vault)
    slot = cloud.sessions[driver.session.session_id]
    cloud = proto._with_slot(cloud, driver.session.session_id,
                             replace(slot, keyset=refreshed))
    assert not grant_access(cloud, Role.SAC_SH, key, "R1")  # generation 0 vs 1
    fresh = refreshed.keys["u1"]
    assert grant_access(cloud, Role.SAC_SH, fresh, "R1")


def test_grant_access_unknown_session_refused():
    _, driver, key = granted_setup()
    cloud = initial_role_states()[Role.CLOUD_A]  # never saw the handler's forward
    assert not grant_access(cloud, Role.SAC_SH, key, "R1")
