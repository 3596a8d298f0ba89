"""Tests for the 13-phase approval protocol state machines."""

import math
import types
from collections import Counter
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from crossrealm import keys as keylib
from crossrealm import protocol as proto
from crossrealm import simnet
from crossrealm.errors import InvalidInput
from crossrealm.harness import Scenario
from crossrealm.protocol import (
    PHASES,
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
    return SessionState(session_id=sid, requester=requester, resources=("R1", "R2"),
                        started_at=0.0)


class Driver:
    """Minimal in-order message pump for driving the state machines."""

    def __init__(self, vault, requester):
        self.vault = vault
        self.roles = initial_role_states()
        self.session = fresh_session(requester)
        self.trace = []  # (phase, kind, outcome)
        self.discards = Counter()  # role -> messages it discarded

    def run_phase(self, index, tamper=None):
        """Run one phase; its request carries the values of ``tamper``, a
        dict of record fields, in place of its own where one is given."""
        spec = PHASES[index - 1]
        result = begin_phase(self.roles[spec.source], spec, self.session, self.vault)
        if result.slot is not None:
            self.roles[spec.source].sessions[self.session.session_id] = result.slot
        if result.drop_reason is not None:
            self.session = self.session._replace(status=SessionStatus.DROPPED,
                                                 drop_reason=result.drop_reason)
            return
        msg = result.outgoing
        assert msg is not None, f"phase {index} produced no request"
        if tamper:
            msg = msg._replace(payload_fields=msg.payload_fields._replace(**tamper))
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
    assert len(PHASES) == 13
    assert [s.index for s in PHASES] == list(range(1, 14))


def test_table_first_row():
    spec = PHASES[0]
    assert (spec.source, spec.destination) == (Role.A, Role.F)
    assert spec.name == "Secure (Request, R1, R2)"
    assert spec.request_bytes == 1024


def test_table_last_row():
    spec = PHASES[12]
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
    requesting = {1, 2, 4, 5, 8, 10}
    for spec in PHASES:
        assert spec.request_bytes == (1024 if spec.index in requesting else 4096)
        assert spec.response_bytes == 1024


def test_the_table_built_from_the_resource_clouds_is_written_out():
    # the grant phases and every table read from RESOURCE_CLOUDS, as literals
    r, ask = Role, ("keyset", "requester_key")
    paper = ("index", "name", "source", "destination", "request_bytes", "response_bytes",
             "carries")
    assert [tuple(getattr(spec, name) for name in paper) for spec in PHASES] == [
        (*row[:5], 1024, row[5]) for row in (
        (1, "Secure (Request, R1, R2)", r.A, r.F, 1024, ("requester", "resources")),
        (2, "Secure (Request, IDr, IDs)", r.F, r.A, 1024, ()),
        (3, "Secure (Response, IDr, IDs)", r.A, r.F, 4096, ("idr", "ids")),
        (4, "Fetch (R1, R2): IF Valid (IDr, IDs)", r.F, r.SAC, 1024,
         ("requester", "resources", "idr", "ids")),
        (5, "Verify (IDr, IDs)", r.SAC, r.SAC_DB, 1024, ("requester", "idr", "ids")),
        (6, "Valid (IDr, IDs)", r.SAC_DB, r.SAC, 4096, ("participants",)),
        (7, "Invoke (Key, IDsess): Fetch (R1, R2)", r.SAC, r.SAC_SH, 4096,
         ("keyset", "requester_key", "resources")),
        (8, "Secure (Access, R1)", r.SAC_SH, r.CLOUD_A, 1024, ask),
        (9, "Secure (Access, R1)", r.CLOUD_A, r.SAC_SH, 4096, ()),
        (10, "Secure (Request, R2): IF Key (IDsess)", r.SAC_SH, r.CLOUD_B, 1024, ask),
        (11, "Secure (Access, R2)", r.CLOUD_B, r.SAC_SH, 4096, ()),
        (12, "Secure (Access, R1, R2): Key (IDsess)", r.SAC_SH, r.F, 4096,
         ("grants", "requester_key", "keyset")),
        (13, "Secure (Access, R1, R2): Key (IDsess)", r.F, r.A, 4096,
         ("grants", "requester_key")))]
    assert [spec.record._fields for spec in PHASES] == [
        ("requester", "resources"), (), ("idr", "ids"),
        ("requester", "resources", "idr", "ids"), ("requester", "idr", "ids"),
        ("participants",), ("keyset", "requester_key", "resources"),
        (*ask, "resource"), ("resource",), (*ask, "resource"), ("resource",),
        ("grants", "requester_key", "keyset"), ("grants", "requester_key")]
    assert {spec.index: spec.outcomes for spec in PHASES if spec.outcomes != ("ok",)} == {
        5: ("valid", "invalid"), 6: ("valid", "invalid"), 8: ("granted", "refused"),
        10: ("granted", "refused")}
    hosting = {role: frozenset() for role in Role}
    assert {role: state.hosted_resources for role, state in initial_role_states().items()} == {
        **hosting, r.CLOUD_A: {"R1"}, r.CLOUD_B: {"R2"}}
    assert {role: state.hosted_resources
            for role, state in initial_role_states(("X", "Y")).items()} == {
        **hosting, r.CLOUD_A: {"X"}, r.CLOUD_B: {"Y"}}
    with pytest.raises(ValueError):  # one resource for each cloud
        initial_role_states(("X",))
    # the defaults and the default network and vault read the list too
    assert proto.DEFAULT_RESOURCES == ("R1", "R2")
    assert Scenario().resources == proto.DEFAULT_RESOURCES
    realms = simnet.build_default_vault(0)[0].to_snapshot()["clouds"]
    assert [(cloud, list(doc["subdomains"])) for cloud, doc in realms.items()] == [
        ("CloudA", ["bi"]), ("CloudB", ["bi"]), ("CloudC", ["analysts"])]
    assert {node: uplink for node, uplink in simnet._UPLINKS.items()
            if node.startswith("Cloud")} == {"CloudA": ("SW2", 4), "CloudB": ("SW2", 4)}


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


@given(kind=st.sampled_from(["per-phase", "localized-f"]),
       seconds=st.floats(min_value=0, max_value=math.inf, exclude_min=True, exclude_max=True))
def test_timeout_mode_encode_is_exact(kind, seconds):
    # six significant digits would turn 60.1234567 into 60.1235
    mode = TimeoutMode(kind, seconds)
    assert TimeoutMode.parse(mode.encode()) == mode


@pytest.mark.parametrize("build", [
    pytest.param(lambda: TimeoutMode.per_phase(10**400), id="per-phase-huge"),
    pytest.param(lambda: TimeoutMode.localized_f(10**400), id="localized-f-huge"),
    pytest.param(lambda: TimeoutMode.per_phase(True), id="per-phase-bool"),
    pytest.param(lambda: TimeoutMode.localized_f("200"), id="localized-f-text"),
    pytest.param(lambda: TimeoutMode.parse(5), id="parse-number"),
    pytest.param(lambda: TimeoutMode.parse(None), id="parse-none"),
    pytest.param(lambda: TimeoutMode("none", 5.0), id="none-with-seconds"),
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
    # neither end of the verification holds a participant to mint for
    sid = driver.session.session_id
    assert driver.roles[Role.SAC_DB].sessions[sid].participants == ()
    assert driver.roles[Role.SAC].sessions[sid].participants == ()


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
    spec = PHASES[index - 1]
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


def test_a_response_from_another_role_is_discarded():
    # A awaits phase 1's response from F: the same response claiming to come
    # from SAC-SH leaves A's slot as it was, and F's own completes the phase
    vault, requester = registry()
    driver = Driver(vault, requester)
    begun = begin_phase(driver.roles[Role.A], PHASES[0], driver.session, vault)
    driver.roles[Role.A].sessions[driver.session.session_id] = begun.slot
    response = driver.deliver(Role.F, begun.outgoing).outgoing
    awaiting = dict(driver.roles[Role.A].sessions)
    spoofed = driver.deliver(Role.A, response._replace(source=Role.SAC_SH))
    assert spoofed.outcome == "discarded:wrong-source"
    assert spoofed.slot is None and spoofed.outgoing is None
    assert driver.roles[Role.A].sessions == awaiting
    assert driver.deliver(Role.A, response).outcome == "phase-complete"


@pytest.mark.parametrize("index, role", [(spec.index, role) for spec in PHASES for role in Role
                                          if role is not spec.destination],
                         ids=lambda value: value.value if isinstance(value, Role) else str(value))
def test_a_request_readdressed_to_another_role_is_discarded(index, role):
    # phase k's request, readdressed to a role other than its destination, is
    # no first contact there, even where phase k is its destination's first: a
    # role that never heard of the session does not know it, and one that did
    # expects no such request
    vault, requester = registry()
    driver = Driver(vault, requester)
    for done in range(1, index):
        driver.run_phase(done)
    spec = PHASES[index - 1]
    begun = begin_phase(driver.roles[spec.source], spec, driver.session, vault)
    driver.roles[spec.source].sessions[driver.session.session_id] = begun.slot
    state = driver.roles[role]
    before = dict(state.sessions)
    why = "out-of-order" if driver.session.session_id in before else "unknown-session"
    result = driver.deliver(role, begun.outgoing._replace(destination=role))
    assert result == HandleResult(None, None, f"discarded:{why}")
    assert state.sessions == before


# phase -> another phase whose record is as wide; phase 8's has phase 10's names
_ALIKE = {1: 3, 3: 13, 10: 8}
# case -> the malformed payload made from a phase request's own record
_MALFORMED = {
    "dict": lambda payload, index: payload._asdict(),
    "another-phase": lambda payload, index: PHASES[_ALIKE[index] - 1].record._make(payload),
    "field-missing": lambda payload, index: tuple.__new__(type(payload), payload[:-1]),
}


# (phase, field) -> a value of the wrong type for a field its responder reads
_WRONG_TYPE = {
    (5, "requester"): ["u1"], (5, "idr"): "x", (5, "ids"): "x",
    (8, "keyset"): "x", (8, "requester_key"): "not-a-key", (8, "resource"): ["R1"],
    (10, "keyset"): "x", (10, "requester_key"): "not-a-key", (10, "resource"): ["R1"],
}


def _assert_discarded_as_malformed(index, make):
    """Phase ``index``'s request, carrying ``make(payload, index)``, is
    discarded as malformed and changes no slot; the real one is then taken."""
    vault, requester = registry()
    driver = Driver(vault, requester)
    for done in range(1, index):
        driver.run_phase(done)
    spec = PHASES[index - 1]
    request = begin_phase(driver.roles[spec.source], spec, driver.session, vault).outgoing
    malformed = make(request.payload_fields, index)
    state = driver.roles[spec.destination]
    before = dict(state.sessions)
    result = driver.deliver(spec.destination, request._replace(payload_fields=malformed))
    assert result.outcome == "discarded:malformed-payload"
    assert result.slot is None and result.outgoing is None
    assert state.sessions == before
    assert not driver.deliver(spec.destination, request).discarded


@pytest.mark.parametrize("index", _ALIKE)
@pytest.mark.parametrize("case", _MALFORMED)
def test_a_request_with_a_malformed_payload_is_discarded(case, index):
    # the request its responder expects, at first contact (phases 1 and 10)
    # or mid-session (phase 3), but carrying a payload that is not its
    # phase's record
    _assert_discarded_as_malformed(index, _MALFORMED[case])


@pytest.mark.parametrize("index, name", _WRONG_TYPE)
def test_a_request_value_of_the_wrong_type_is_discarded(index, name):
    # the phase's own record, but a value its responder reads is of another type
    _assert_discarded_as_malformed(
        index, lambda payload, index: payload._replace(**{name: _WRONG_TYPE[index, name]}))


_UNKNOWN_PART = keylib.KeyPart(b"\x5a" * 32, keylib.KeyRole.SUBDOMAIN)
_ANOTHER_SESSIONS_KEY = keylib.mint_session_keys(
    b"\x09" * 16, [("u1", "CloudC", "analysts")], registry()[0]).keys["u1"]
# case -> (phase, the request's values): a value its reader refuses, alone or
# beside one that decides the request unread (an unknown pair, a resource
# the cloud does not host, another session's key): no outcome is reached
_REFUSED_UNDECIDED = {
    "keyset-none-at-8": (8, {"keyset": None}),
    "keyset-none-at-10": (10, {"keyset": None}),
    "keyset-beside-an-unhosted-resource": (8, {"keyset": "x", "resource": "R2"}),
    "keyset-beside-another-sessions-key": (8, {"keyset": "x",
                                               "requester_key": _ANOTHER_SESSIONS_KEY}),
    "requester-beside-an-unknown-pair": (5, {"requester": ["u1"], "ids": _UNKNOWN_PART}),
}


@pytest.mark.parametrize("case", _REFUSED_UNDECIDED)
def test_a_refused_value_is_discarded_whatever_else_the_request_holds(case):
    index, values = _REFUSED_UNDECIDED[case]
    _assert_discarded_as_malformed(index, lambda payload, index: payload._replace(**values))


# case -> (the phase whose request carries it, the field, a value its reader
# refuses): phase 6's participants are read when phase 7 mints for them,
# phase 1's resources when phases 8 and 10 ask a cloud for one each
_ILL_TYPED = {
    "participants-pair": (6, "participants", (("u1", "CloudC"),)),
    "participants-number": (6, "participants", 5),
    "participant-number": (6, "participants", (5,)),
    "participant-empty": (6, "participants", ((),)),
    "participants-unknown-cloud": (6, "participants", (("u1", "CloudZ", "analysts"),)),
    "participants-unknown-subdomain": (6, "participants", (("u1", "CloudC", "nowhere"),)),
    "participants-empty-cloud": (6, "participants", (("u1", "", "analysts"),)),
    "resources-number": (1, "resources", 5),
    "resources-one": (1, "resources", ("R1",)),
}


@pytest.mark.parametrize("case", _ILL_TYPED)
def test_a_carried_value_its_reader_refuses_ends_the_session_without_a_raise(case):
    # participants the authority cannot mint for drop the session at phase 7
    # as invalid-credentials; resources that are not one per resource cloud
    # make the session handler discard phase 7's request, changing no slot
    index, name, value = _ILL_TYPED[case]
    vault, requester = registry()
    driver = Driver(vault, requester)
    for done in range(1, 7):
        driver.run_phase(done, {name: value} if done == index else None)
    sid = driver.session.session_id
    if name == "participants":
        driver.run_phase(7)
        session = driver.session
        assert (session.status, session.drop_reason, session.current_phase) == (
            SessionStatus.DROPPED, "invalid-credentials", 6)
        assert driver.roles[Role.SAC].sessions[sid].keyset is None
        return
    spec = PHASES[6]
    begun = begin_phase(driver.roles[spec.source], spec, driver.session, vault)
    assert begun.outgoing.payload_fields.resources == value  # carried from phase 1 unread
    driver.roles[spec.source].sessions[sid] = begun.slot
    state = driver.roles[spec.destination]
    before = dict(state.sessions)
    result = driver.deliver(spec.destination, begun.outgoing)
    assert result == HandleResult(None, None, "discarded:malformed-payload")
    assert state.sessions == before


@pytest.mark.parametrize("kind", ["request", "response"])
@pytest.mark.parametrize("bad", [0, 14, -1, "3", True, 2.0], ids=repr)
def test_a_message_of_no_phase_is_discarded(bad, kind):
    # phase 13's request at A, and A's response at F, each with its phase
    # index replaced by one that is not an int from 1 to 13: discarded,
    # changing no slot, and the real message is then taken
    vault, requester = registry()
    driver = Driver(vault, requester)
    for done in range(1, 13):
        driver.run_phase(done)
    spec = PHASES[12]
    begun = begin_phase(driver.roles[spec.source], spec, driver.session, vault)
    driver.roles[spec.source].sessions[driver.session.session_id] = begun.slot
    msg, role = begun.outgoing, spec.destination
    if kind == "response":
        msg, role = driver.deliver(role, msg).outgoing, spec.source
    state = driver.roles[role]
    before = dict(state.sessions)
    result = driver.deliver(role, msg._replace(phase_index=bad))
    assert result == HandleResult(None, None, "discarded:unknown-phase")
    assert state.sessions == before
    assert driver.deliver(role, msg).outcome == ("ok" if kind == "request" else "phase-complete")


def test_handle_message_is_pure():
    vault, requester = registry()
    driver = Driver(vault, requester)
    driver.run_phase(1)
    state = driver.roles[Role.F]
    slot = state.sessions[driver.session.session_id]
    snapshot = (repr(state), repr(slot))
    # craft the phase-2 request F would send; feed it to A twice
    result = begin_phase(state, PHASES[1], driver.session, vault)
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
    request = begin_phase(driver.roles[Role.A], PHASES[2], driver.session, vault)
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
    assert localized_timeout_at_f(initial_role_states()[Role.F], dropped) is dropped


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
    dropped = localized_timeout_at_f(initial_role_states()[Role.F], session)
    assert dropped.status is SessionStatus.DROPPED
    assert str(dropped.drop_reason) == "localized-timeout"


@pytest.mark.parametrize("k", [1, 5, 12])
def test_on_timeout_leaves_a_session_past_the_phase(k):
    # the transition decides expiry itself, whoever fires it: a timer of a
    # phase the session has completed is ignored
    _, requester = registry()
    session = fresh_session(requester)
    for _ in range(k):
        session = advance_phase(session)
    assert on_timeout(session, k) is session
    assert on_timeout(session, k + 1).drop_reason == f"phase-timeout({k + 1})"


def test_the_watchdog_reads_fs_slot_for_the_key_set():
    # F holds the key set once phase 12's grant delivery arrived: the
    # watchdog is then ignored; a slot without one, a slot that holds what a
    # tampered phase 12 carried in its place, or no slot, expires it
    vault, requester = registry()
    driver, tampered = Driver(vault, requester), Driver(vault, requester)
    for k in range(1, 13):
        driver.run_phase(k)
        tampered.run_phase(k, {"keyset": 5} if k == 12 else None)
    f_state, session = driver.roles[Role.F], driver.session
    assert f_state.sessions[session.session_id].keyset is not None
    assert localized_timeout_at_f(f_state, session) is session
    slot = f_state.sessions[session.session_id]
    assert tampered.roles[Role.F].sessions[session.session_id] == slot._replace(keyset=5)
    keyless = RoleState(Role.F, sessions={session.session_id: slot._replace(keyset=None)})
    for state in (keyless, tampered.roles[Role.F], RoleState(Role.F)):
        dropped = localized_timeout_at_f(state, session)
        assert (dropped.status, dropped.drop_reason) == (SessionStatus.DROPPED,
                                                         "localized-timeout")


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
    private = key._replace(leaf=key.leaf._replace(role=keylib.KeyRole.PRIVATE))
    assert not grant_access(cloud, Role.SAC_SH, private, "R1")  # its leaf names no session


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


@pytest.mark.parametrize("name, bad", [("key", "not-a-key"), ("key", None), ("resource", ["R1"]),
                                       ("resource", 5), ("keyset", "x"), ("keyset", ())], ids=repr)
def test_grant_access_refuses_a_value_of_the_wrong_type(name, bad):
    # each value grant_access reads is checked where it is read: InvalidInput,
    # never a raw TypeError or AttributeError
    _, driver, key = granted_setup()
    cloud, sid = driver.roles[Role.CLOUD_A], driver.session.session_id
    args = {"key": key, "resource": "R1", "keyset": cloud.sessions[sid].keyset, name: bad}
    sessions = {sid: cloud.sessions[sid]._replace(keyset=args["keyset"])}
    with pytest.raises(InvalidInput):
        grant_access(cloud, Role.SAC_SH, args["key"], args["resource"], sessions)


def test_grant_access_unknown_session_refused():
    _, driver, key = granted_setup()
    cloud = initial_role_states()[Role.CLOUD_A]  # never saw the handler's forward
    assert not grant_access(cloud, Role.SAC_SH, key, "R1")


def _grant_request(index):
    """A session run up to grant phase ``index``'s begin: its vault, the
    cloud's state and the honest request SAC-SH sends."""
    vault, requester = registry()
    driver = Driver(vault, requester)
    for k in range(1, index):
        driver.run_phase(k)
    spec = PHASES[index - 1]
    begun = begin_phase(driver.roles[Role.SAC_SH], spec, driver.session, vault)
    return vault, driver.roles[spec.destination], begun.outgoing


def _presented(case, request, vault):
    """The request of a grant phase with the key set and key of one case."""
    keyset, key, resource = request.payload_fields
    if case == "stale-generation":  # the request carries the refreshed set, the key is older
        keyset = keylib.refresh_session(keyset, [("u1", "CloudC", "analysts")], vault)
    elif case == "another-session":
        key = keylib.mint_session_keys(b"\x20" * 16, [("u1", "CloudC", "analysts")],
                                       vault).keys["u1"]
    elif case == "private-leaf":  # its leaf names no session
        key = key._replace(leaf=key.leaf._replace(role=keylib.KeyRole.PRIVATE))
    return request._replace(payload_fields=type(request.payload_fields)(keyset, key, resource))


@pytest.mark.parametrize("index", [8, 10])
@pytest.mark.parametrize("case", ["granted", "stale-generation", "another-session",
                                  "private-leaf"])
def test_a_clouds_grant_is_grant_access_on_the_slot_it_stores(index, case):
    # the cloud's outcome is grant_access's answer for a state that holds the
    # slot the request stores, so the access rule has one home
    vault, cloud, request = _grant_request(index)
    msg = _presented(case, request, vault)
    result = handle_message(cloud, msg, vault)
    _, key, resource = msg.payload_fields
    holding = replace(cloud, sessions={msg.session_id: result.slot})
    granted = grant_access(holding, Role.SAC_SH, key, resource)
    assert granted is (case == "granted")
    assert result.outcome == ("granted" if granted else "refused")
    assert result.slot.grants == ((resource,) if granted else ())
    assert result.slot.keyset is msg.payload_fields.keyset
    assert cloud.sessions.get(msg.session_id) is None  # the transition stored nothing


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
    assert begin_phase(cloud, PHASES[8], driver.session, vault) == BeginResult(
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


# phase -> the fields its responder sets from its own work on the request, after
# those the request carries: SAC-DB the participants, each end of a grant phase
# the grants
_DECIDES = {5: ("participants",), 8: ("grants",), 9: ("grants",), 10: ("grants",),
            11: ("grants",)}


def test_each_phase_row_is_compiled_from_the_table():
    # a slot whose every field holds its own name shows which fields a row's
    # getter picks and which its receive setter sets
    named = SessionSlot(*SessionSlot._fields)
    for spec in PHASES:
        assert spec.pick(named) == spec.carries
        assert spec.record._fields[:len(spec.carries)] == spec.carries
        sets = ("expect", *spec.carries, *_DECIDES.get(spec.index, ()))
        new = tuple(f"new {name}" for name in sets)
        assert spec.store(named, new) == named._replace(**dict(zip(sets, new)))
        assert spec.due == (spec.index, MessageKind.RESPONSE)


def test_each_phase_fact_is_what_its_row_implies():
    clouds = {cloud for cloud, _, _ in proto.RESOURCE_CLOUDS}
    for spec in PHASES:
        assert spec.awaited == (spec.index, MessageKind.REQUEST)
        assert (spec.due_values, spec.then_values) == ((spec.due,), (spec.then,))
        assert spec.width == len(spec.record._fields)
        assert spec.carry_count == len(spec.carries)
        assert spec.asks_cloud is (spec.destination in clouds)
        assert spec.cloud_reports is (spec.source in clouds)
        assert spec.verifies is (spec.outcomes == ("valid", "invalid"))
    assert [spec.index for spec in PHASES if spec.asks_cloud] == [8, 10]
    assert [spec.index for spec in PHASES if spec.cloud_reports] == [9, 11]
    assert [spec.index for spec in PHASES if spec.verifies] == [5, 6]


_ANY = st.none() | st.integers() | st.text(max_size=3) | st.tuples(st.integers())


@st.composite
def _updates(draw, cls):
    """(value, changed field names, new values) for a NamedTuple class."""
    value = cls(*draw(st.lists(_ANY, min_size=len(cls._fields), max_size=len(cls._fields))))
    names = draw(st.lists(st.sampled_from(cls._fields), unique=True))
    return value, names, draw(st.lists(_ANY, min_size=len(names), max_size=len(names)))


# every setter protocol makes -> (its class, the fields it sets): the module's
# own, then each phase's store
_MADE = {
    proto._set_phase: (SessionState, ("current_phase",)),
    proto._set_phase_and_status: (SessionState, ("current_phase", "status")),
    proto.set_dropped: (SessionState, ("status", "drop_reason")),
    proto.set_ended: (SessionState, ("ended_at",)),
    proto._set_expect: (SessionSlot, ("expect",)),
    proto._set_expect_and_keys: (SessionSlot, ("expect", "keyset", "requester_key")),
    proto._set_opened: (SessionSlot, ("expect", "requester", "resources", "idr", "ids")),
    **{spec.store: (SessionSlot, ("expect", *spec.carries, *_DECIDES.get(spec.index, ())))
       for spec in PHASES},
}


def test_every_setter_protocol_makes_is_listed():
    made = {value for value in vars(proto).values()
            if isinstance(value, types.FunctionType) and value.__name__ == "<lambda>"}
    assert made | {spec.store for spec in PHASES} == set(_MADE)


@st.composite
def _made_updates(draw):
    """(setter, value, changed field names, new values) for a setter protocol made."""
    setter = draw(st.sampled_from(list(_MADE)))
    cls, names = _MADE[setter]
    value = cls(*draw(st.lists(_ANY, min_size=len(cls._fields), max_size=len(cls._fields))))
    return setter, value, names, draw(st.lists(_ANY, min_size=len(names), max_size=len(names)))


@given(st.sampled_from([SessionSlot, SessionState]).flatmap(_updates)
       .map(lambda update: (proto._setter(type(update[0]), *update[1]), *update))
       | _made_updates())
def test_positional_setter_equals_replace(update):
    # a setter made for any fields, in any order, and every setter protocol
    # itself makes, each phase's store too
    setter, value, names, new_values = update
    updated = setter(value, tuple(new_values))
    expected = value._replace(**dict(zip(names, new_values)))
    assert updated == expected and type(updated) is type(expected)


# fields -> whether the setter splices them to a slice of the old values (a
# run at the start or the end, in order) or picks the copy's values from the
# old and the new
_FORMS = {
    ("expect",): "splice",
    ("expect", "requester", "resources"): "splice",  # a run at the start
    ("keyset", "requester_key", "grants"): "splice",  # at the end
    ("grants",): "splice",
    SessionSlot._fields: "splice",
    (): "splice",
    ("idr", "ids", "participants"): "pick",  # a run in the middle
    ("requester",): "pick",
    ("requester", "expect"): "pick",  # at the start, but out of order
    ("grants", "requester_key"): "pick",  # at the end, but out of order
    ("expect", "grants"): "pick",  # both ends
    ("requester", "idr", "keyset"): "pick",
}


@pytest.mark.parametrize("names", _FORMS, ids=lambda names: "-".join(names) or "none")
def test_each_setter_form_equals_replace(names):
    slot = SessionSlot(*(f"old {name}" for name in SessionSlot._fields))
    new_values = tuple(f"new {name}" for name in names)
    setter = proto._setter(SessionSlot, *names)
    assert ("picks" in setter.__code__.co_freevars) is (_FORMS[names] == "pick")
    updated = setter(slot, new_values)
    assert updated == slot._replace(**dict(zip(names, new_values)))
    assert type(updated) is SessionSlot


@given(st.sampled_from([SessionSlot, SessionState]).flatmap(_updates))
def test_positional_setter_rejects_an_unknown_field(update):
    value, names, _ = update
    before = repr(value)
    with pytest.raises(ValueError, match="bogus"):
        proto._setter(type(value), *names, "bogus")
    with pytest.raises(ValueError, match="bogus"):
        proto._positions(type(value), ("bogus", *names))
    assert repr(value) == before


# -- value types ------------------------------------------------------------------

def _values():
    msg = ProtocolMessage(b"\x01" * 16, 3, MessageKind.REQUEST, Role.A, Role.F, {})
    vault, requester = registry()
    keyset = keylib.mint_session_keys(b"\x01" * 16, [("u1", "CloudC", "analysts")], vault)
    key = keyset.keys["u1"]
    return [msg, HandleResult(None, msg, "ok"), BeginResult(None, msg),
            SessionSlot(), fresh_session(requester), key.leaf,
            keylib.derive_signature("u1", META), key, keyset,
            vault.find_member("u1", requester.idr, requester.ids), requester]


@pytest.mark.parametrize("value", _values(), ids=lambda v: type(v).__name__)
def test_value_types_refuse_assignment(value):
    for name in type(value)._fields:
        with pytest.raises(AttributeError):
            setattr(value, name, None)
    with pytest.raises(AttributeError):  # no instance dictionary either
        value.extra = None


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
    # what a phase's source expects once the response arrives, and whether
    # the request is its destination's first, are the walk's answers
    for spec in PHASES:
        following = proto._next_request(spec.source, spec.index)
        assert spec.then == (None if following is None else (following, MessageKind.REQUEST))
        assert spec.first_contact is (proto._next_request(spec.destination, 0) == spec.index)
    # every role but A, which opens a session itself, first hears of it once
    assert [(spec.index, spec.destination) for spec in PHASES if spec.first_contact] == [
        (1, Role.F), (4, Role.SAC), (5, Role.SAC_DB), (7, Role.SAC_SH), (8, Role.CLOUD_A),
        (10, Role.CLOUD_B)]


# -- positional messages, results and payloads ----------------------------------------

_GRANT_PHASES = (8, 10)


def _expected_begin(spec, prev, session, vault, hosted):
    """The BeginResult a phase's start must equal, built by keyword from the
    session and the initiator's previous slot."""
    due = (spec.index, MessageKind.RESPONSE)
    if spec.index == 1:
        requester = session.requester
        slot = SessionSlot(expect=due, requester=requester.tenant_id,
                           resources=session.resources, idr=requester.idr, ids=requester.ids)
    elif spec.index == 7:
        if not prev.participants:
            return BeginResult(slot=None, outgoing=None, drop_reason="invalid-credentials")
        keyset = keylib.mint_session_keys(session.session_id, prev.participants, vault)
        slot = prev._replace(expect=due, keyset=keyset,
                             requester_key=keyset.keys[prev.requester])
    elif spec.index in (9, 11) and not prev.grants:
        return BeginResult(slot=None, outgoing=None, drop_reason="access-refused")
    else:
        slot = prev._replace(expect=due)
    payload = {name: getattr(slot, name) for name in spec.carries}
    if spec.index in _GRANT_PHASES:
        payload["resource"] = slot.resources[spec.index == 10]
    elif spec.index in (9, 11):
        payload["resource"] = next(iter(hosted))
    message = ProtocolMessage(session_id=session.session_id, phase_index=spec.index,
                              kind=MessageKind.REQUEST, source=spec.source,
                              destination=spec.destination,
                              payload_fields=spec.record(**payload))
    return BeginResult(slot=slot, outgoing=message, drop_reason=None)


def _expected_request(spec, msg, prev, vault, hosted):
    """The HandleResult a phase request's delivery must equal, by keyword."""
    fields = msg.payload_fields._asdict()
    slot = (prev or SessionSlot())._replace(
        expect=None, **{name: fields[name] for name in spec.carries})
    outcome = "ok"
    if spec.index == 5:
        member = vault.find_member(fields["requester"], fields["idr"], fields["ids"])
        realm = member and (member.tenant_id, member.cloud_id, member.subdomain_id)
        slot = slot._replace(participants=(realm,) if member else ())
    if spec.index in (5, 6):
        outcome = "valid" if slot.participants else "invalid"
    if spec.index in _GRANT_PHASES:
        granted = fields["resource"] in hosted
        slot = slot._replace(grants=slot.grants + ((fields["resource"],) if granted else ()))
        outcome = "granted" if granted else "refused"
    elif spec.index in (9, 11):
        slot = slot._replace(grants=slot.grants + (fields["resource"],))
    reply = ProtocolMessage(session_id=msg.session_id, phase_index=spec.index,
                            kind=MessageKind.RESPONSE, source=spec.destination,
                            destination=spec.source, payload_fields=())
    return HandleResult(slot=slot, outgoing=reply, outcome=outcome)


def _assert_built(result, expected):
    # equal as tuples, so each value sits at its own field
    assert type(result) is type(expected) and result == expected
    if expected.outgoing is not None:
        assert type(result.outgoing) is ProtocolMessage
        payload, due = result.outgoing.payload_fields, expected.outgoing.payload_fields
        assert type(payload) is type(due)  # a request's record of its phase, or ()


@settings(max_examples=40, deadline=None)
@given(sid=st.binary(min_size=16, max_size=16),
       resources=st.sampled_from([("R1", "R2"), ("R2", "R1"), ("R1", "R3")]),
       claim=st.sampled_from(["u1", "u2"]))
def test_transitions_build_what_keywords_build(sid, resources, claim):
    # every message and result a transition builds by position equals the
    # keyword-built one, through refusals, a bad claim and a discard per step
    vault, requester = registry()
    session = SessionState(session_id=sid, requester=requester._replace(tenant_id=claim),
                           resources=resources, started_at=0.0)
    roles = initial_role_states()
    for spec in PHASES:
        source, destination = roles[spec.source], roles[spec.destination]
        result = begin_phase(source, spec, session, vault)
        _assert_built(result, _expected_begin(spec, source.sessions.get(sid), session, vault,
                                              source.hosted_resources))
        if result.drop_reason is not None:
            return
        source.sessions[sid] = result.slot
        request = result.outgoing
        handled = handle_message(destination, request, vault)
        _assert_built(handled, _expected_request(spec, request, destination.sessions.get(sid),
                                                 vault, destination.hosted_resources))
        destination.sessions[sid] = handled.slot
        again = handle_message(destination, request, vault)  # a duplicate is discarded
        _assert_built(again, HandleResult(slot=None, outgoing=None, outcome=again.outcome))
        assert again.discarded
        done = handle_message(source, handled.outgoing, vault)
        following = proto._next_request(spec.source, spec.index)
        _assert_built(done, HandleResult(
            slot=source.sessions[sid]._replace(
                expect=None if following is None else (following, MessageKind.REQUEST)),
            outgoing=None, outcome="phase-complete"))
        source.sessions[sid] = done.slot
        session = advance_phase(session)
    assert session.status is SessionStatus.COMPLETED


_SLOT_FIELDS = st.lists(st.sampled_from(SessionSlot._fields), unique=True)


@given(names=_SLOT_FIELDS,
       values=st.lists(_ANY, min_size=len(SessionSlot._fields),
                       max_size=len(SessionSlot._fields)))
def test_payload_getter_equals_the_comprehension(names, values):
    # none, one or many fields: an itemgetter of one position returns the
    # bare value, which the getter must still give as a one-value tuple
    slot = SessionSlot(*values)
    pick = proto._getter(proto._positions(SessionSlot, names))
    assert dict(zip(names, pick(slot))) == {name: getattr(slot, name) for name in names}


@given(values=st.lists(_ANY, min_size=len(SessionSlot._fields),
                       max_size=len(SessionSlot._fields)))
def test_each_phase_payload_carries_its_fields(values):
    # each phase has a record of its own: its carried fields, then the
    # resource in phases 8-11, filled from the slot by the phase's getter
    slot = SessionSlot(*values)
    assert len({spec.record for spec in PHASES}) == proto.PHASE_COUNT
    for spec in PHASES:
        expected = {name: getattr(slot, name) for name in spec.carries}
        resource = ()
        if 8 <= spec.index <= 11:
            resource = ("R1",)
            expected["resource"] = "R1"
        assert spec.record._fields == tuple(expected)
        assert spec.record._make(spec.pick(slot) + resource)._asdict() == expected


# -- the per-message path names no enum class ---------------------------------------

_ENUM_CLASSES = {"Role", "MessageKind", "SessionStatus", "KeyRole"}

# every event handler and helper the engine runs, and the transitions and key
# checks they call, per message or per session
_PER_MESSAGE = [
    *(method for name, method in vars(simnet._Engine).items()
      if isinstance(method, types.FunctionType) and name != "__init__"),
    handle_message, proto._discard, begin_phase, advance_phase,
    on_timeout, localized_timeout_at_f, grant_access,
    keylib.KeyPart.__new__, keylib.HierarchicalKey.__new__, keylib.SessionKeySet.__new__,
    keylib.HierarchicalKey.session_field, keylib._prf, keylib._session_leaf, keylib._mint,
    keylib.mint_session_keys, keylib.verify_session_key,
]


def _names(code: types.CodeType):
    """The global and attribute names a function's code reads, nested code too."""
    yield from code.co_names
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            yield from _names(const)


def _handler(name: str) -> types.CodeType:
    """The code of one of the per-phase handlers that ``_Engine._wire_phase`` makes."""
    return next(const for const in simnet._Engine._wire_phase.__code__.co_consts
                if isinstance(const, types.CodeType) and const.co_name == name)


# each per-phase handler by itself as well, under the name of the engine
# method whose work it does: begin starts a phase, on_request and on_response
# deliver, and begin and on_request send
_HANDLERS = [
    pytest.param((_handler("begin"),), id="_Engine._begin_phase"),
    pytest.param((_handler("on_request"), _handler("on_response")), id="_Engine._on_deliver"),
    pytest.param((_handler("begin"), _handler("on_request")), id="_Engine._send"),
]


@pytest.mark.parametrize("codes", [
    *(pytest.param((function.__code__,), id=function.__qualname__) for function in _PER_MESSAGE),
    *_HANDLERS,
])
def test_per_message_code_reads_enum_members_from_constants(codes):
    # a member read through its class (Role.SAC) takes the slow path of the
    # enum metaclass's __getattr__ on Python 3.11; each module binds the
    # members it tests to constants at import
    assert not _ENUM_CLASSES & {name for code in codes for name in _names(code)}


def test_the_event_calendar_has_one_way_in_and_one_way_out():
    # every event enters through schedule, which keeps each queue in time
    # order, and leaves through loop
    names = {name: set(_names(method.__code__)) for name, method in vars(simnet._Engine).items()
             if isinstance(method, types.FunctionType)}
    assert {name for name in names if "heappush" in names[name]} == {"schedule"}
    assert {name for name in names if names[name] & {"heappop", "heapreplace"}} == {"loop"}
