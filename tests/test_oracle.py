"""A model-based oracle for the role machines.

A hypothesis state machine drives ``begin_phase`` and ``handle_message``
directly for two or three sessions over one vault, the way the engine
does, but lets the network misbehave: any in-flight message may be
delivered next, a delivered one may come again, one may be lost, sent to
a role it is not addressed to, come from a role that did not send it, or,
for a request, carry the record of another phase or, in one of its fields,
a value of no field's type.
A model of each session predicts every step: which message a role takes
next, the outcome and reply of each one taken, the payload of each phase
request, whether a cloud opens a resource to a presented key, and whether
a per-phase timer or F's watchdog, fired at any step, expires a session.
Any message the model does not expect must be discarded and leave every
slot as it was, and no transition may raise, whatever a payload holds.
"""

import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    initialize,
    invariant,
    precondition,
    rule,
)

from crossrealm import keys as keylib
from crossrealm import protocol as proto
from crossrealm import simnet
from crossrealm.protocol import (
    PHASES,
    MessageKind,
    ProtocolMessage,
    Role,
    SessionState,
    SessionStatus,
    advance_phase,
    begin_phase,
    grant_access,
    handle_message,
    initial_role_states,
    localized_timeout_at_f,
    on_timeout,
)

# one read-only vault for every run: three tenants of CloudC/analysts
VAULT, REQUESTERS = simnet.build_default_vault(3)
TENANTS = sorted(REQUESTERS)
REALM = ("CloudC", "analysts")
# the grant phases, read from the table's rows with a resource cloud at one
# end: SAC-SH asks each cloud in turn (phase -> the cloud asked), and the
# cloud reports back (phase -> the cloud reporting). The k-th cloud asked
# hosts the k-th resource, R<k>.
_RESOURCE_CLOUDS = {cloud for cloud, _, _ in proto.RESOURCE_CLOUDS}
ASKS = {spec.index: spec.destination for spec in PHASES if spec.destination in _RESOURCE_CLOUDS}
REPORTS = {spec.index: spec.source for spec in PHASES if spec.source in _RESOURCE_CLOUDS}
CLOUDS = tuple(ASKS.values())
RESOURCES = tuple(f"R{k}" for k in range(1, len(CLOUDS) + 1))
HOSTED = dict(zip(CLOUDS, RESOURCES))  # cloud -> the resource it hosts
FOREIGN = "R-elsewhere"  # a resource no cloud hosts
# the phase whose request brings F the session's key set, which ends F's watchdog
KEYSET_TO_F = next(spec.index for spec in PHASES
                   if spec.destination is Role.F and "keyset" in spec.carries)

# what a request's responder decides on an expected request, by phase
_DECIDED = {5: "valid", 6: "valid", **dict.fromkeys(ASKS, "granted")}


def ill_typed(tenant: str) -> tuple:
    """Values of no carried field's type: a number, nothing, an empty tuple,
    a pair, text, and a (tenant, cloud, sub-domain) triple of a realm no
    vault holds; the pair and the triple name the session's own tenant."""
    return 5, None, (), (tenant, "CloudC"), "text", (tenant, "CloudZ", "nowhere")


class Track:
    """The model of one session: the one message its roles take next, as
    (phase, kind, source, destination), or None when a phase is due to
    begin; the phases it completed; the payload of each phase request its
    responder took, by phase; whether a payload was tampered with, and the
    values of no field's type put in its requests."""

    def __init__(self, session: SessionState):
        self.session = session
        self.expect = None
        self.completed: list[int] = []
        self.taken: dict[int, tuple] = {}
        self.tampered = False
        self.ill_typed: list = []

    def carries_ill_typed(self, msg: ProtocolMessage) -> bool:
        """Whether a request holds a value put in one of the session's
        requests, there or in a request before it whose responder kept it."""
        return any(value in self.ill_typed for value in msg.payload_fields)

    def holds_keyset(self, index: int) -> bool:
        """Whether phase ``index``'s responder took its request with a key
        set: a SessionKeySet, at F as at a cloud, whatever else F may take
        from phase 12 (a cloud discards all but a SessionKeySet)."""
        taken = self.taken.get(index)
        return taken is not None and type(taken.keyset) is keylib.SessionKeySet

    @property
    def tenant(self) -> str:
        return self.session.requester.tenant_id

    def keyset(self) -> keylib.SessionKeySet:
        """The key set the authority must mint: for the session's requester."""
        return keylib.mint_session_keys(self.session.session_id, [(self.tenant, *REALM)], VAULT)

    def truth(self, name: str):
        """The value a request must carry in a payload field, from what the
        session is: its requester, that requester's realm and key set."""
        requester = self.session.requester
        keyset = self.keyset()
        return {
            "requester": requester.tenant_id, "resources": self.session.resources,
            "idr": requester.idr, "ids": requester.ids,
            "participants": ((requester.tenant_id, *REALM),), "keyset": keyset,
            "requester_key": keyset.keys[requester.tenant_id], "grants": RESOURCES,
        }[name]

    def payload(self, index: int) -> dict:
        """The fields of a phase request's record, by name."""
        payload = {name: self.truth(name) for name in PHASES[index - 1].carries}
        cloud = ASKS.get(index) or REPORTS.get(index)
        if cloud is not None:  # a grant phase names the resource its cloud hosts
            payload["resource"] = HOSTED[cloud]
        return payload


# the model of a session no role has heard of: it expects no message
STRAY = Track(SessionState(b"\xee" * 16, REQUESTERS[TENANTS[0]], RESOURCES))


class ProtocolMachine(RuleBasedStateMachine):
    """Drives the role machines under a misbehaving network; see the module."""

    def __init__(self):
        super().__init__()
        self.roles = initial_role_states()
        self.tracks: dict[bytes, Track] = {}
        self.flight: list[ProtocolMessage] = []  # sent, not yet delivered or lost
        self.delivered: list[ProtocolMessage] = []
        self.minted: list[keylib.HierarchicalKey] = []

    @initialize(count=st.integers(min_value=2, max_value=3))
    def open_sessions(self, count):
        for n in range(count):
            sid = bytes([n + 1]) * 16
            requester = REQUESTERS[TENANTS[n]]
            self.tracks[sid] = Track(SessionState(sid, requester, RESOURCES, started_at=0.0))

    # -- helpers -----------------------------------------------------------

    def _pick(self, messages, pick):
        return messages[pick % len(messages)]

    def _deliver(self, msg: ProtocolMessage, role: Role, well_formed: bool = True):
        """handle_message at ``role``, checked against the model; the
        accepted slot is stored, as the engine stores it. A message that is
        not ``well_formed`` is one the model expects no role to take."""
        track = self.tracks.get(msg.session_id, STRAY)
        state = self.roles[role]
        before = {r: dict(s.sessions) for r, s in self.roles.items()}
        result = handle_message(state, msg, VAULT)
        due = (role is msg.destination
               and track.expect == (msg.phase_index, msg.kind, msg.source, msg.destination))
        took = due and well_formed
        # only its payload is wrong: another phase's record, or a value of no
        # field's type that the code reading it refuses; any other due request is taken
        if due and (not took or track.carries_ill_typed(msg) and result.discarded):
            assert result.outcome == "discarded:malformed-payload", (msg, result.outcome)
            took = False
        if not took:
            assert result.discarded, (msg, role, result.outcome)
            assert result.slot is None and result.outgoing is None
            assert {r: dict(s.sessions) for r, s in self.roles.items()} == before
            return
        assert not result.discarded, (msg, role, result.outcome)
        state.sessions[msg.session_id] = result.slot
        spec = PHASES[msg.phase_index - 1]
        if msg.kind is MessageKind.REQUEST:
            track.taken[spec.index] = msg.payload_fields
            if track.tampered:
                assert result.outcome in ("ok", "valid", "invalid", "granted", "refused")
            else:
                assert result.outcome == _DECIDED.get(spec.index, "ok")
            assert result.outgoing == ProtocolMessage(
                session_id=msg.session_id, phase_index=spec.index, kind=MessageKind.RESPONSE,
                source=spec.destination, destination=spec.source, payload_fields=())
            track.expect = (spec.index, MessageKind.RESPONSE, spec.destination, spec.source)
            self.flight.append(result.outgoing)
        else:
            assert result.outcome == "phase-complete" and result.outgoing is None
            track.completed.append(spec.index)
            track.session = advance_phase(track.session)
            track.expect = None

    def _due(self) -> list[Track]:
        return [t for t in self.tracks.values()
                if t.expect is None and t.session.status is SessionStatus.IN_PROGRESS]

    def _begin(self, track: Track):
        """begin_phase for the session's next phase, checked against the model."""
        spec = PHASES[track.session.current_phase]
        state = self.roles[spec.source]
        result = begin_phase(state, spec, track.session, VAULT)
        if result.drop_reason is not None:
            assert track.tampered, result
            assert result.slot is None and result.outgoing is None
            track.session = track.session._replace(status=SessionStatus.DROPPED,
                                                   drop_reason=result.drop_reason)
            return
        msg = result.outgoing
        assert (msg.session_id, msg.phase_index, msg.kind, msg.source, msg.destination) == (
            track.session.session_id, spec.index, MessageKind.REQUEST, spec.source,
            spec.destination)
        assert type(msg.payload_fields) is spec.record, spec.index
        if not track.tampered:
            assert msg.payload_fields._asdict() == track.payload(spec.index), spec.index
        state.sessions[msg.session_id] = result.slot
        if spec.index == 7:
            self.minted.append(result.slot.requester_key)
        track.expect = (spec.index, MessageKind.REQUEST, spec.source, spec.destination)
        self.flight.append(msg)

    def _deliver_in_flight(self, at: int):
        msg = self.flight.pop(at)
        self.delivered.append(msg)
        self._deliver(msg, msg.destination)

    # -- rules ---------------------------------------------------------------

    @precondition(lambda self: self._due())
    @rule(pick=st.integers(min_value=0))
    def begin_next_phase(self, pick):
        self._begin(self._pick(self._due(), pick))

    @precondition(lambda self: self.flight)
    @rule(pick=st.integers(min_value=0))
    def deliver(self, pick):
        self._deliver_in_flight(pick % len(self.flight))

    @rule(pick=st.integers(min_value=0),
          steps=st.integers(min_value=1, max_value=3 * proto.PHASE_COUNT))
    def run_in_order(self, pick, steps):
        """For a while the network serves one session promptly: each phase
        begins when the last ends, and each message arrives next."""
        track = self._pick(list(self.tracks.values()), pick)
        sid = track.session.session_id
        for _ in range(steps):
            if track.session.status is not SessionStatus.IN_PROGRESS:
                return
            if track.expect is None:
                self._begin(track)
                continue
            at = next((i for i, m in enumerate(self.flight) if m.session_id == sid), None)
            if at is None:  # its message was lost: the session is stuck
                return
            self._deliver_in_flight(at)

    @precondition(lambda self: self.delivered)
    @rule(pick=st.integers(min_value=0))
    def deliver_again(self, pick):
        msg = self._pick(self.delivered, pick)
        self._deliver(msg, msg.destination)

    @precondition(lambda self: self.flight)
    @rule(pick=st.integers(min_value=0))
    def lose(self, pick):
        self.flight.pop(pick % len(self.flight))

    @precondition(lambda self: self.flight or self.delivered)
    @rule(pick=st.integers(min_value=0), role=st.sampled_from(Role), readdress=st.booleans())
    def misroute(self, pick, role, readdress):
        """A copy goes to a role it was not sent to, readdressed to it or not."""
        msg = self._pick(self.flight + self.delivered, pick)
        if role is not msg.destination:
            self._deliver(msg._replace(destination=role) if readdress else msg, role)

    @precondition(lambda self: self.flight or self.delivered)
    @rule(pick=st.integers(min_value=0), role=st.sampled_from(Role))
    def spoof_source(self, pick, role):
        """A copy of a request or a response claims to come from a role that
        did not send it; the model expects no message from that role."""
        msg = self._pick(self.flight + self.delivered, pick)
        if role is not msg.source:
            self._deliver(msg._replace(source=role), msg.destination)

    @precondition(lambda self: any(m.kind is MessageKind.REQUEST
                                   for m in self.flight + self.delivered))
    @rule(pick=st.integers(min_value=0),
          index=st.integers(min_value=1, max_value=proto.PHASE_COUNT))
    def carry_another_phases_record(self, pick, index):
        """A copy of a request carries the record of another phase, filled
        with the session's own values for that phase."""
        msg = self._pick([m for m in self.flight + self.delivered
                          if m.kind is MessageKind.REQUEST], pick)
        if index == msg.phase_index:
            return
        track = self.tracks[msg.session_id]
        record = PHASES[index - 1].record(**track.payload(index))
        self._deliver(msg._replace(payload_fields=record), msg.destination, well_formed=False)

    @precondition(lambda self: any(m.payload_fields for m in self.flight))
    @rule(pick=st.integers(min_value=0), at=st.integers(min_value=0),
          kind=st.integers(min_value=0, max_value=len(ill_typed("")) - 1), wrap=st.booleans())
    def inject_ill_typed(self, pick, at, kind, wrap):
        """A request in flight carries, in one of its fields, a value of no
        field's type, or a 1-tuple of one where a tuple is due. Its
        responder takes it, or discards it as malformed if the code reading
        the value refuses it; a later phase may then drop the session. No
        transition raises."""
        requests = [i for i, m in enumerate(self.flight) if m.payload_fields]  # phase 2's is empty
        i = self._pick(requests, pick)
        msg, payload = self.flight[i], self.flight[i].payload_fields
        track = self.tracks[msg.session_id]
        value = ill_typed(track.tenant)[kind]
        name = payload._fields[at % len(payload)]
        value = (value,) if wrap else value
        self.flight[i] = msg._replace(payload_fields=payload._replace(**{name: value}))
        track.tampered = True
        track.ill_typed.append(value)

    @rule(index=st.integers(min_value=1, max_value=proto.PHASE_COUNT))
    def deliver_stray_response(self, index):
        """A response arrives for a session no role has heard of."""
        spec = PHASES[index - 1]
        self._deliver(ProtocolMessage(b"\xee" * 16, index, MessageKind.RESPONSE,
                                      spec.destination, spec.source, {}), spec.source)

    @precondition(lambda self: self.minted)
    @rule(pick=st.integers(min_value=0))
    def present_key(self, pick):
        """A session key is presented to each cloud directly, by each role, for
        each resource."""
        key = self._pick(self.minted, pick)
        track = self.tracks[key.session_field()]
        for access, cloud in ASKS.items():
            # the cloud holds the key set once it took its access request with one
            holds = track.holds_keyset(access)
            for presenter in Role:
                for resource in (*RESOURCES, FOREIGN):
                    expected = presenter is Role.SAC_SH and resource == HOSTED[cloud] and holds
                    assert grant_access(self.roles[cloud], presenter, key, resource) is expected

    @rule(pick=st.integers(min_value=0),
          index=st.integers(min_value=1, max_value=proto.PHASE_COUNT))
    def fire_timers(self, pick, index):
        """Phase ``index``'s timer and F's watchdog fire for a session now, as
        probes: each transition decides expiry itself, and is pure, so the
        model is left as it is. A session in progress expires unless it
        completed the phase, or F took the request that brings the key set
        with one."""
        track = self._pick(list(self.tracks.values()), pick)
        session = track.session
        in_progress = session.status is SessionStatus.IN_PROGRESS
        for after, expires, reason in (
                (on_timeout(session, index), index not in track.completed,
                 f"phase-timeout({index})"),
                (localized_timeout_at_f(self.roles[Role.F], session),
                 not track.holds_keyset(KEYSET_TO_F), "localized-timeout")):
            if in_progress and expires:
                assert after == session._replace(status=SessionStatus.DROPPED,
                                                 drop_reason=reason), (after, reason)
            else:
                assert after is session, (after, reason)

    # -- invariants ------------------------------------------------------------

    @invariant()
    def phases_complete_in_order_once(self):
        for track in self.tracks.values():
            assert track.completed == list(range(1, len(track.completed) + 1))
            assert track.session.current_phase == len(track.completed)
            assert (track.session.status is SessionStatus.COMPLETED) == (
                len(track.completed) == proto.PHASE_COUNT)

    @invariant()
    def minted_keys_name_the_requester(self):
        for state in self.roles.values():
            for sid, slot in state.sessions.items():
                if type(slot.keyset) is keylib.SessionKeySet:  # not an ill-typed value carried
                    assert slot.keyset.session_id == sid
                    assert set(slot.keyset.keys) == {self.tracks[sid].tenant}

    @invariant()
    def clouds_grant_only_what_they_host(self):
        for cloud in CLOUDS:
            state = self.roles[cloud]
            for slot in state.sessions.values():
                assert set(slot.grants) <= state.hosted_resources


TestProtocolMachine = ProtocolMachine.TestCase
# 60 examples in the suite, and the profile's 600 under ``--hypothesis-profile
# oracle-x10`` (see conftest.py)
TestProtocolMachine.settings = settings(
    max_examples=(settings.default.max_examples
                  if settings.get_current_profile_name() == "oracle-x10" else 60),
    stateful_step_count=80, deadline=None)


class PayloadSwapMachine(ProtocolMachine):
    """The same network, which can also make a request carry another
    session's value of a payload field, as a swap of two sessions' fields
    would. A ``requester`` claim of another tenant gets keys minted for that
    tenant, since every tenant of a sub-domain shares its IDr and IDs."""

    @precondition(lambda self: any(m.kind is MessageKind.REQUEST for m in self.flight))
    @rule(pick=st.integers(min_value=0), other=st.integers(min_value=0),
          name=st.sampled_from(["requester", "idr", "ids", "requester_key"]))
    def swap_payload_field(self, pick, other, name):
        requests = [m for m in self.flight if m.kind is MessageKind.REQUEST]
        msg = self._pick(requests, pick)
        track = self.tracks[msg.session_id]
        others = [t for t in self.tracks.values() if t is not track]
        payload = msg.payload_fields
        if name not in payload._fields:
            return
        payload = payload._replace(**{name: self._pick(others, other).truth(name)})
        self.flight[self.flight.index(msg)] = msg._replace(payload_fields=payload)
        track.tampered = True


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2, close the impostor hole: a tenant that claims "
                          "another tenant of its sub-domain gets that tenant's session keys")
def test_payload_swap_keeps_each_sessions_keys():
    # an explicit rule order, so that the strict mark cannot flake
    machine = PayloadSwapMachine()
    machine.open_sessions(count=2)
    machine.run_in_order(pick=0, steps=10)  # phases 1-3 done, phase 4's request in flight
    machine.swap_payload_field(pick=0, other=0, name="requester")
    machine.run_in_order(pick=0, steps=3 * proto.PHASE_COUNT)
    machine.phases_complete_in_order_once()
    machine.clouds_grant_only_what_they_host()
    machine.minted_keys_name_the_requester()


@pytest.mark.parametrize("name, steps", [
    pytest.param("requester", 13, id="requester-at-phase-5"),
    pytest.param("participants", 16, id="participants-at-phase-6"),
])
def test_a_swapped_claim_is_dropped_as_invalid_credentials(name, steps):
    # phase 5's request naming the other session's tenant, or phase 6's
    # carrying the other session's participants, leaves the authority with a
    # requester that is no participant's tenant: phase 7 drops the session
    # and mints no key set
    machine = PayloadSwapMachine()
    machine.open_sessions(count=2)
    machine.run_in_order(pick=0, steps=steps)  # the phase's request in flight
    machine.swap_payload_field(pick=0, other=0, name=name)
    machine.run_in_order(pick=0, steps=3 * proto.PHASE_COUNT)
    session = list(machine.tracks.values())[0].session  # the one run_in_order drove
    assert (session.status, session.drop_reason) == (SessionStatus.DROPPED,
                                                     "invalid-credentials")
    machine.phases_complete_in_order_once()
    machine.clouds_grant_only_what_they_host()
    machine.minted_keys_name_the_requester()


# (steps to the phase's request in flight, field, ill_typed's value, wrapped)
_INJECTED = {
    "participants-pair-at-phase-6": (16, "participants", 3, True),
    "participants-number-at-phase-6": (16, "participants", 0, True),
    "participants-unknown-realm-at-phase-6": (16, "participants", 5, True),
    "resources-number-at-phase-1": (1, "resources", 0, False),
}


@pytest.mark.parametrize("case", _INJECTED)
def test_an_injected_ill_typed_value_makes_no_transition_raise(case):
    # inject_ill_typed in an explicit rule order: the phase's request in
    # flight carries the value, and the session then runs on in order. The
    # authority cannot mint for such participants, and the session handler
    # refuses resources that are not one per resource cloud, so the session
    # ends as invalid-credentials or stops at phase 7's discarded request
    steps, name, kind, wrap = _INJECTED[case]
    machine = ProtocolMachine()
    machine.open_sessions(count=2)
    machine.run_in_order(pick=0, steps=steps)
    (msg,) = machine.flight
    machine.inject_ill_typed(pick=0, at=msg.payload_fields._fields.index(name), kind=kind,
                             wrap=wrap)
    machine.run_in_order(pick=0, steps=3 * proto.PHASE_COUNT)
    track = list(machine.tracks.values())[0]  # the one run_in_order drove
    if name == "participants":
        assert (track.session.status, track.session.drop_reason) == (SessionStatus.DROPPED,
                                                                     "invalid-credentials")
    else:
        assert track.session.current_phase == 6 and 7 not in track.taken
    machine.phases_complete_in_order_once()
    machine.clouds_grant_only_what_they_host()
    machine.minted_keys_name_the_requester()
