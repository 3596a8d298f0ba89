"""Tests for the 13-phase approval protocol state machines."""

import math
from collections import Counter
from dataclasses import replace

import pytest

from crossrealm import keys as keylib
from crossrealm import protocol as proto
from crossrealm import simnet
from crossrealm.errors import InvalidInput
from crossrealm.harness import Scenario
from crossrealm.protocol import (
    BeginResult,
    HandleResult,
    MessageKind,
    ProtocolMessage,
    Requester,
    Role,
    RoleState,
    SessionSlot,
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
        self.discards = Counter()  # role -> messages it discarded

    def run_phase(self, index):
        spec = phase_spec(index)
        result = begin_phase(self.roles[spec.source], spec, self.session, self.vault)
        if result.slot is not None:
            self.roles[spec.source].sessions[self.session.session_id] = result.slot
        if result.drop_reason is not None:
            self.session = self.session._replace(status=SessionStatus.DROPPED,
                                                 drop_reason=result.drop_reason)
            return
        msg = result.outgoing
        assert msg is not None, f"phase {index} produced no request"
        while msg is not None:
            res = self.deliver(msg.destination, msg)
            self.trace.append((msg.phase_index, msg.kind, res.outcome))
            assert not res.discarded, (msg.phase_index, res.outcome)
            if msg.kind is MessageKind.RESPONSE and res.outcome == "phase-complete":
                self.session = advance_phase(self.session)
            msg = res.outgoing

    def deliver(self, role, msg):
        """handle_message at one role, then the caller's part: store the
        returned slot in the role's table, or count the discard."""
        state = self.roles[role]
        res = handle_message(state, msg, self.vault)
        if res.discarded:
            self.discards[role] += 1
        else:
            state.sessions[msg.session_id] = res.slot
        return res

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
    # a mode checks its own kind and seconds, however it is built
    for build in (lambda: TimeoutMode.per_phase(math.nan), lambda: TimeoutMode.per_phase(0),
                  lambda: TimeoutMode("bogus", 5.0), lambda: TimeoutMode("per-phase"),
                  lambda: TimeoutMode("per-phase", "5")):
        with pytest.raises(InvalidInput):
            build()


@pytest.mark.parametrize("build", [
    pytest.param(lambda: TimeoutMode.per_phase(10**400), id="per-phase-huge"),
    pytest.param(lambda: TimeoutMode.localized_f(10**400), id="localized-f-huge"),
    pytest.param(lambda: TimeoutMode.per_phase(True), id="per-phase-bool"),
    pytest.param(lambda: TimeoutMode.localized_f("200"), id="localized-f-text"),
    pytest.param(lambda: TimeoutMode.parse(5), id="parse-number"),
    pytest.param(lambda: TimeoutMode.parse(None), id="parse-none"),
])
def test_timeout_mode_constructors_raise_invalid_input(build):
    # never a raw OverflowError from float() or AttributeError from str methods
    with pytest.raises(InvalidInput):
        build()


# -- full scripted run ----------------------------------------------------------

def test_full_run_completes_with_granted_key():
    vault, requester = registry()
    driver = Driver(vault, requester)
    driver.run_all()

    assert driver.session.status is SessionStatus.COMPLETED
    assert driver.session.current_phase == 13
    keyset = driver.roles[Role.SAC].sessions[driver.session.session_id].keyset
    assert keyset is not None

    # phases complete in strictly increasing order, 1..13 exactly once
    completions = [p for p, kind, outcome in driver.trace
                   if kind is MessageKind.RESPONSE and outcome == "phase-complete"]
    assert completions == list(range(1, 14))

    # principal ends up holding the session key the clouds accept via SAC-SH
    held = driver.roles[Role.A].sessions[driver.session.session_id].requester_key
    assert held is not None
    assert keylib.verify_session_key(held, keyset)
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
    assert driver.session.drop_reason == "invalid-credentials"
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
        payload_fields={})
    state = driver.roles[role]
    before = dict(state.sessions)
    result = driver.deliver(role, msg)
    assert result.outcome == "discarded:" + case.removesuffix("-request").removesuffix("-response")
    assert result.outgoing is None
    assert result.slot is None
    assert driver.discards == {role: 1}
    # a discarded message never records or changes a session
    assert state.sessions == before


def test_handle_message_is_pure():
    vault, requester = registry()
    driver = Driver(vault, requester)
    driver.run_phase(1)
    state = driver.roles[Role.F]
    slot = state.sessions[driver.session.session_id]
    snapshot = (repr(state), repr(slot))
    # craft the phase-2 request F would send; feed it to A twice
    result = begin_phase(state, phase_spec(2), driver.session, vault)
    req = result.outgoing
    receiver = driver.roles[Role.A]
    received = repr(receiver)
    r1 = handle_message(receiver, req, vault)
    r2 = handle_message(receiver, req, vault)
    assert r1 == r2
    assert (repr(state), repr(slot)) == snapshot  # input state and slot untouched
    assert repr(receiver) == received  # the returned slot is not stored by the transition


def test_transition_touches_only_its_own_slot():
    # the role's table is written in place by the caller, one slot at a
    # time: a transition at a role holding many sessions copies nothing
    vault, requester = registry()
    driver = Driver(vault, requester)
    front = driver.roles[Role.F]
    table = front.sessions
    others = {n.to_bytes(16, "big"): SessionSlot(requester=f"t{n}") for n in range(2000)}
    table.update(others)
    driver.run_phase(1)
    driver.run_phase(2)
    request = begin_phase(driver.roles[Role.A], phase_spec(3), driver.session, vault)
    with_other_slots = dict(table)
    result = handle_message(front, request.outgoing, vault)
    assert result.outcome == "ok"
    assert front.sessions is table and table == with_other_slots  # nothing written
    for index in range(3, proto.PHASE_COUNT + 1):
        driver.run_phase(index)
    assert driver.session.status is SessionStatus.COMPLETED
    assert driver.roles[Role.F] is front and front.sessions is table
    assert len(table) == len(others) + 1
    assert all(table[sid] is slot for sid, slot in others.items())


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
    sid = driver.session.session_id
    refreshed = keylib.refresh_session(
        driver.roles[Role.SAC].sessions[sid].keyset, [("u1", "CloudC", "analysts")], vault)
    cloud = replace(cloud, sessions={sid: cloud.sessions[sid]._replace(keyset=refreshed)})
    assert not grant_access(cloud, Role.SAC_SH, key, "R1")  # generation 0 vs 1
    fresh = refreshed.keys["u1"]
    assert grant_access(cloud, Role.SAC_SH, fresh, "R1")


def test_grant_access_unknown_session_refused():
    _, driver, key = granted_setup()
    cloud = initial_role_states()[Role.CLOUD_A]  # never saw the handler's forward
    assert not grant_access(cloud, Role.SAC_SH, key, "R1")


def test_refused_grant_drops_the_session():
    # a cloud that refuses records no grant, so it has nothing to deliver
    # and the session ends as refused
    vault, requester = registry()
    driver = Driver(vault, requester)
    cloud = driver.roles[Role.CLOUD_A] = RoleState(Role.CLOUD_A)  # R1 is hosted nowhere
    for index in range(1, 9):
        driver.run_phase(index)
    assert (8, MessageKind.REQUEST, "refused") in driver.trace
    assert cloud.sessions[driver.session.session_id].grants == ()
    assert begin_phase(cloud, phase_spec(9), driver.session, vault) == BeginResult(
        None, None, "access-refused")
    driver.run_phase(9)
    assert driver.session.status is SessionStatus.DROPPED
    assert driver.session.drop_reason == "access-refused"
    assert driver.session.current_phase == 8


# -- slot and session copies --------------------------------------------------------

def test_replace_rejects_an_unknown_field():
    _, requester = registry()
    for value in (SessionSlot(requester="t0", grants=("R1",)), fresh_session(requester)):
        before = repr(value)
        with pytest.raises(ValueError, match="bogus"):
            value._replace(expect=None, bogus=1)
        assert repr(value) == before


def test_carried_names_are_slot_fields():
    slot_fields = set(SessionSlot._fields)
    for *_, carries in proto._TABLE:
        assert set(carries) <= slot_fields


# -- value types ------------------------------------------------------------------

def _values():
    msg = ProtocolMessage(b"\x01" * 16, 3, MessageKind.REQUEST, Role.A, Role.F, {})
    return [msg, HandleResult(None, msg, "ok"), BeginResult(None, msg),
            SessionSlot(), fresh_session(registry()[1])]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_types_refuse_assignment(value):
    for name in type(value).__annotations__:
        with pytest.raises(AttributeError):
            setattr(value, name, None)


def test_keyword_construction_equals_positional():
    sid = b"\x02" * 16
    assert ProtocolMessage(
        session_id=sid, phase_index=5, kind=MessageKind.RESPONSE, source=Role.SAC_DB,
        destination=Role.SAC, payload_fields={},
    ) == ProtocolMessage(sid, 5, MessageKind.RESPONSE, Role.SAC_DB, Role.SAC, {})
    assert HandleResult(slot=None, outgoing=None, outcome="ok") == HandleResult(None, None, "ok")
    reason = "invalid-credentials"
    assert (BeginResult(slot=None, outgoing=None, drop_reason=reason)
            == BeginResult(None, None, reason))
    assert BeginResult(None, None) == BeginResult(None, None, None)


def test_discarded_property():
    assert HandleResult(None, None, "discarded:out-of-order").discarded
    assert not HandleResult(SessionSlot(), None, "phase-complete").discarded


def test_next_expectation_table_matches_the_walk():
    for role in Role:
        for phase in range(1, proto.PHASE_COUNT + 1):
            following = proto._next_request(role, phase)
            expect = None if following is None else (following, MessageKind.REQUEST)
            assert proto._NEXT_EXPECT[role, phase] == expect
