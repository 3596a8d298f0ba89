"""The 13-phase session approval protocol as per-role state machines.

A session is approved through thirteen strictly sequential phases. Each
phase is one request/response exchange between two of the seven roles;
the phase ends only when its final response has arrived back at the
requesting node, and the next phase is always initiated by the previous
phase's destination. Phase 1 starts with the application; phases 2..13
start when the previous phase ends. The driving loop (see simnet) is
responsible for observing phase completion and invoking begin_phase on
the next initiator, which is what keeps a suppressed response from ever
leaking activity into later phases.

State machines are pure: handle_message and begin_phase read a role
state and return the one new slot of the session they touched, together
with the one message the role sends, if any. Every per-message update of
a slot or session is a new tuple built by position, through setters made
once at import from the fields they set, and so is every message and
transition result, through ``tuple.__new__``; a request's payload is a
record of its phase, a NamedTuple of the fields it carries. Each role's
slot table (RoleState.sessions) is owned by the driving loop, which
stores the returned slot in place, so a transition costs the same however
many sessions a role holds, and removes a session's slots from every
table when the session ends. A single session must be driven by one
logical event stream while distinct sessions can proceed concurrently
against a shared read-only vault.

Messages that do not fit the expected (phase, kind) for their session
are discarded, never buffered. The session authority additionally
refuses to learn about any session whose approval request did not
arrive through the front-end.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field
from enum import Enum
from operator import itemgetter
from typing import Callable, NamedTuple, Sequence

from . import keys as keylib
from .errors import InvalidInput, RoleMismatch, UnregisteredRealm, is_number
from .keys import HierarchicalKey, KeyPart, SessionKeySet
from .vault import Vault, _check_lookup


class Role(Enum):
    A = "A"
    F = "F"
    SAC = "SAC"
    SAC_DB = "SAC-DB"
    SAC_SH = "SAC-SH"
    CLOUD_A = "CloudA"
    CLOUD_B = "CloudB"

    # members are singletons; the engine's per-message dict lookups skip Enum's hash
    __hash__ = object.__hash__


class MessageKind(Enum):
    REQUEST = "request"
    RESPONSE = "response"

    __hash__ = object.__hash__


@dataclass(frozen=True)
class TimeoutMode:
    """Timeout policy for a run: none, per-phase, or the localized watchdog at F.
    A timeout's seconds must be positive and finite; "none" takes none."""

    kind: str  # "none" | "per-phase" | "localized-f"
    seconds: float | None = None

    def __post_init__(self):
        if self.kind == "none":
            if self.seconds is not None:
                raise InvalidInput("timeout mode none takes no seconds")
        elif self.kind not in ("per-phase", "localized-f"):
            raise InvalidInput(f"bad timeout mode {self.kind!r}")
        elif not (is_number(self.seconds) and 0 < self.seconds < math.inf):  # NaN fails too
            raise InvalidInput("timeout seconds must be positive and finite")

    @classmethod
    def none(cls) -> "TimeoutMode":
        return cls("none")

    @classmethod
    def per_phase(cls, seconds: float) -> "TimeoutMode":
        return cls("per-phase", seconds)

    @classmethod
    def localized_f(cls, seconds: float = 200.0) -> "TimeoutMode":
        return cls("localized-f", seconds)

    @classmethod
    def parse(cls, text: str) -> "TimeoutMode":
        """Parse the CLI/scenario syntax: none | per-phase:<s> | localized-f:<s>."""
        if not isinstance(text, str):
            raise InvalidInput(f"a timeout mode is text, not {text!r}")
        if text == "none":
            return cls.none()
        kind, _, seconds = text.partition(":")
        try:
            return cls(kind, float(seconds))
        except ValueError:  # seconds that do not read as a number
            raise InvalidInput(f"bad timeout mode {text!r}") from None

    def encode(self) -> str:
        if self.kind == "none":
            return "none"
        text = f"{self.seconds:g}"  # six significant digits: kept only where exact
        return f"{self.kind}:{text if float(text) == self.seconds else repr(self.seconds)}"


@dataclass(frozen=True, slots=True)
class PhaseSpec:
    """One row of the protocol task table, sized by the paper's defaults,
    with everything the transitions, the event log's shape check and the
    fold read of its phase, made once at import from the table."""

    index: int
    name: str
    source: Role
    destination: Role
    request_bytes: int
    response_bytes: int
    carries: tuple[str, ...]  # SessionSlot fields the request copies to the responder
    # the request's payload: a NamedTuple of the carried fields, then in the
    # grant phases the resource it names
    record: type
    pick: Callable  # slot -> the values the request carries, as one tuple
    # (slot, values) -> the responder's slot: its expectation cleared, then
    # what the request carries and what the responder decides, in that order
    store: Callable
    outcomes: tuple[str, ...]  # what the responder reports on taking the request
    first_contact: bool  # whether the request is the first its destination hears of a session
    due: tuple[int, MessageKind]  # what the source expects once the request is sent
    then: tuple[int, MessageKind] | None  # what the source expects once the response arrives
    due_values: tuple  # (due,), the new values of the expectation setter
    then_values: tuple  # (then,)
    awaited: tuple[int, MessageKind]  # what the destination expects of the request
    width: int  # the record's count of fields, of which the first ``carry_count`` are carried
    carry_count: int
    asks_cloud: bool  # whether the destination is a resource cloud
    cloud_reports: bool  # whether the source is one
    verifies: bool  # whether both ends report whether the verification found anyone


# The resource clouds, in the order the session handler asks them for access:
# (the cloud, the names of the handler's ask and of the cloud's report). The
# k-th cloud hosts a session's k-th resource, and the k-th pair of grant
# phases, from phase 8 on, is its ask and its report.
RESOURCE_CLOUDS = (
    (Role.CLOUD_A, "Secure (Access, R1)", "Secure (Access, R1)"),
    (Role.CLOUD_B, "Secure (Request, R2): IF Key (IDsess)", "Secure (Access, R2)"),
)
# resource cloud -> where the resource it hosts sits in a session's resources
_CLOUD_AT = {cloud: at for at, (cloud, _, _) in enumerate(RESOURCE_CLOUDS)}
DEFAULT_RESOURCES = tuple(f"R{at + 1}" for at in _CLOUD_AT.values())  # R<k> on the k-th cloud

# Phase table, phase k in row k: (name, source, destination, request bytes,
# carried slot fields). A requesting exchange carries 1024 bytes; an exchange
# that delivers credentials, a session key, or an access grant carries 4096.
# Every phase-closing final response is a bare 1024-byte acknowledgment.
_R = Role
_TABLE = (
    ("Secure (Request, R1, R2)", _R.A, _R.F, 1024, ("requester", "resources")),
    ("Secure (Request, IDr, IDs)", _R.F, _R.A, 1024, ()),
    ("Secure (Response, IDr, IDs)", _R.A, _R.F, 4096, ("idr", "ids")),
    ("Fetch (R1, R2): IF Valid (IDr, IDs)", _R.F, _R.SAC, 1024,
     ("requester", "resources", "idr", "ids")),
    ("Verify (IDr, IDs)", _R.SAC, _R.SAC_DB, 1024, ("requester", "idr", "ids")),
    ("Valid (IDr, IDs)", _R.SAC_DB, _R.SAC, 4096, ("participants",)),
    ("Invoke (Key, IDsess): Fetch (R1, R2)", _R.SAC, _R.SAC_SH, 4096,
     ("keyset", "requester_key", "resources")),
    *(row for cloud, ask, report in RESOURCE_CLOUDS
      for row in ((ask, _R.SAC_SH, cloud, 1024, ("keyset", "requester_key")),
                  (report, cloud, _R.SAC_SH, 4096, ()))),
    ("Secure (Access, R1, R2): Key (IDsess)", _R.SAC_SH, _R.F, 4096,
     ("grants", "requester_key", "keyset")),
    ("Secure (Access, R1, R2): Key (IDsess)", _R.F, _R.A, 4096, ("grants", "requester_key")),
)

PHASE_COUNT = len(_TABLE)
ACK_BYTES = 1024


class ProtocolMessage(NamedTuple):
    session_id: bytes
    phase_index: int
    kind: MessageKind
    source: Role
    destination: Role
    payload_fields: tuple  # a request's record of its phase; empty for a response


# the payload of every response: a bare acknowledgment carries no fields
_NO_PAYLOAD = ()

# The enum members that per-message code tests, bound once. On Python 3.11
# the enum metaclass defines ``__getattr__``, so every read through the
# class (``Role.SAC``) takes the slow attribute path.
_REQUEST, _RESPONSE = MessageKind.REQUEST, MessageKind.RESPONSE
_SAC, _SAC_SH = Role.SAC, Role.SAC_SH

# builds a NamedTuple from all its values, in field order, skipping the
# Python-level ``__new__`` that checks and fills them: ``_new(cls, values)``
_new = tuple.__new__


# -- positional updates ----------------------------------------------------------

def _positions(cls, names) -> tuple[int, ...]:
    """Where each named field sits in a NamedTuple class's values, in order.
    An unknown name raises ValueError, as ``_replace`` does."""
    unknown = [name for name in names if name not in cls._fields]
    if unknown:
        raise ValueError(f"Got unexpected field names: {unknown!r}")
    return tuple(map(cls._fields.index, names))


def _setter(cls, *names):
    """``set(value, new_values)``: a copy of a ``cls`` value whose named fields
    hold ``new_values``, in order, built by position; it equals
    ``value._replace(**dict(zip(names, new_values)))``. Fields that are a
    run at the start or the end, in order, are spliced to one slice of the
    old values; others are picked from the old values and the new (a slice
    on each side of a run in the middle costs as much). An unknown name
    raises ValueError here, when the setter is made."""
    at, run = _positions(cls, names), len(names)
    if at == tuple(range(run)):  # a run at the start: the other fields follow it
        return lambda value, new_values: _new(cls, new_values + value[run:])
    start = len(cls._fields) - run
    if at == tuple(range(start, start + run)):  # a run at the end: the others lead it
        return lambda value, new_values: _new(cls, value[:start] + new_values)
    # picks each field of the copy from the old values followed by the new ones
    picks = itemgetter(*(len(cls._fields) + at.index(i) if i in at else i
                         for i in range(len(cls._fields))))
    return lambda value, new_values: _new(cls, picks(value + new_values))


def _getter(at: tuple[int, ...]):
    """``get(value)``: the values at positions ``at``, as one tuple, also
    for no position or one (where an ``itemgetter`` returns the bare value)."""
    if len(at) > 1:
        return itemgetter(*at)
    return itemgetter(slice(at[0], at[0] + 1) if at else slice(0))


# -- session bookkeeping ------------------------------------------------------

class SessionStatus(Enum):
    IN_PROGRESS = "in-progress"
    COMPLETED = "completed"
    DROPPED = "dropped"


_IN_PROGRESS, _COMPLETED, _DROPPED = (SessionStatus.IN_PROGRESS, SessionStatus.COMPLETED,
                                      SessionStatus.DROPPED)


class Requester(NamedTuple):
    """The foreign-realm tenant a session is requested for."""

    tenant_id: str
    idr: KeyPart
    ids: KeyPart


class SessionState(NamedTuple):
    """Progress of one session through the phase sequence."""

    session_id: bytes
    requester: Requester
    resources: tuple[str, ...]
    current_phase: int = 0
    status: SessionStatus = SessionStatus.IN_PROGRESS
    # "phase-timeout(<k>)", "localized-timeout", "invalid-credentials" or "access-refused"
    drop_reason: str | None = None
    started_at: float | None = None
    ended_at: float | None = None


_set_phase = _setter(SessionState, "current_phase")
_set_phase_and_status = _setter(SessionState, "current_phase", "status")
# the engine's copies of a session: (session, (status, why)), (session, (end time,))
set_dropped = _setter(SessionState, "status", "drop_reason")
set_ended = _setter(SessionState, "ended_at")


def advance_phase(session: SessionState) -> SessionState:
    """Complete phase current_phase + 1 on arrival of its final response.

    Phase order needs no check here: the engine begins phase k only once
    phase k - 1 is complete, and a role accepts only the response to the
    phase it began, so every completion is for the next phase.
    """
    if session.status is not _IN_PROGRESS:
        return session
    done = session.current_phase + 1
    if done == PHASE_COUNT:
        return _set_phase_and_status(session, (done, _COMPLETED))
    return _set_phase(session, (done,))


def on_timeout(session: SessionState, phase_index: int) -> SessionState:
    """Drop a session whose per-phase timer fired with its phase still open.

    The timer is armed at phase start + limit, so its firing is the expiry;
    a session past the phase, or ended, is returned itself.
    """
    if session.status is not _IN_PROGRESS or session.current_phase >= phase_index:
        return session
    return set_dropped(session, (_DROPPED, f"phase-timeout({phase_index})"))


def localized_timeout_at_f(state: RoleState, session: SessionState) -> SessionState:
    """The front-end watchdog: drop a session whose cloud-side answer is overdue.

    The engine arms it when F forwards the approval request (phase 4
    complete), to fire limit seconds later. It expires unless F's slot in
    ``state`` holds the key set that phase 12's grant delivery brings, a
    SessionKeySet (a missing slot holds none, and whatever else a tampered
    phase 12 carried is none); an ended session is returned itself.
    """
    slot = state.sessions.get(session.session_id)
    if session.status is not _IN_PROGRESS or (
            slot is not None and type(slot.keyset) is SessionKeySet):
        return session
    return set_dropped(session, (_DROPPED, "localized-timeout"))


# -- role state ---------------------------------------------------------------

class SessionSlot(NamedTuple):
    """What one role remembers about one session."""

    expect: tuple[int, MessageKind] | None = None
    requester: str | None = None
    resources: tuple[str, ...] | None = None
    idr: KeyPart | None = None
    ids: KeyPart | None = None
    # the realms the session's keys are minted for: the verified requester's, or none
    participants: tuple[keylib.Participant, ...] = ()
    keyset: SessionKeySet | None = None
    requester_key: HierarchicalKey | None = None
    grants: tuple[str, ...] = ()  # a cloud's own grant; the grants the handler collected


def _next_request(role: Role, after: int) -> int | None:
    """The phase whose request this role receives next, after phase ``after``.

    None when the role's next row names it as source: begin_phase arms the
    role then. The table never gives one role two consecutive turns as
    source, so after such a turn the role next appears as a destination.
    """
    for index, (_, source, destination, _, _) in enumerate(_TABLE[after:], start=after + 1):
        if role in (source, destination):
            return index if destination is role else None
    return None


def _phase(index: int, name: str, source: Role, destination: Role, request_bytes: int,
           carries: tuple[str, ...]) -> PhaseSpec:
    """Phase ``index``'s row of the table, compiled; a misspelled carried
    name fails here, at import. In the grant phases the session handler and
    a cloud trade access: the cloud asked decides its grant, and the
    handler collects it. SAC-DB decides the participants at phase 5, and
    both ends of the verification report whether it found anyone."""
    asked, reports, verifies = destination in _CLOUD_AT, source in _CLOUD_AT, index in (5, 6)
    decides = ("participants",) if index == 5 else ("grants",) if asked or reports else ()
    fields = carries + (("resource",) if asked or reports else ())
    following = _next_request(source, index)
    due, then = (index, _RESPONSE), None if following is None else (following, _REQUEST)
    return PhaseSpec(
        index, name, source, destination, request_bytes, ACK_BYTES, carries,
        record=namedtuple(f"Phase{index}Request", fields),
        pick=_getter(_positions(SessionSlot, carries)),
        store=_setter(SessionSlot, "expect", *carries, *decides),
        outcomes=(("valid", "invalid") if verifies
                  else ("granted", "refused") if asked else ("ok",)),
        first_contact=_next_request(destination, 0) == index,
        due=due, then=then, due_values=(due,), then_values=(then,), awaited=(index, _REQUEST),
        width=len(fields), carry_count=len(carries), asks_cloud=asked, cloud_reports=reports,
        verifies=verifies)


# The ordered 13-phase table: phase k is PHASES[k - 1]. A run's byte-size
# overrides are the network's business: the simulator applies them to its own legs.
PHASES = tuple(_phase(index, *row) for index, row in enumerate(_TABLE, start=1))

# what a responder holds of a session before its first request: nothing
_EMPTY_SLOT = SessionSlot()

_set_expect = _setter(SessionSlot, "expect")
_set_expect_and_keys = _setter(SessionSlot, "expect", "keyset", "requester_key")
_set_opened = _setter(SessionSlot, "expect", "requester", "resources", "idr", "ids")


def _tenant(participant: object) -> object:
    """A participant's tenant, the head of its tuple; None for any other value."""
    return participant[0] if type(participant) is tuple and participant else None


@dataclass(frozen=True)
class RoleState:
    """One role's hosted resources and slot table.

    The driving loop owns it: transitions only read it, and the caller
    stores each returned slot in ``sessions``; a discard changes nothing.
    The loop also removes a session's slot when the session ends, so
    ``sessions`` holds the sessions in flight.
    """

    role: Role
    hosted_resources: frozenset[str] = frozenset()
    sessions: dict[bytes, SessionSlot] = field(default_factory=dict)


def initial_role_states(resources: Sequence[str] = DEFAULT_RESOURCES) -> dict[Role, RoleState]:
    """Fresh state for all seven roles; the k-th of RESOURCE_CLOUDS hosts the
    k-th resource."""
    hosting = {cloud: frozenset({name}) for cloud, name in zip(_CLOUD_AT, resources, strict=True)}
    return {role: RoleState(role, hosting.get(role, frozenset())) for role in Role}


class HandleResult(NamedTuple):
    slot: SessionSlot | None  # the session's new slot at the role; None on a discard
    outgoing: ProtocolMessage | None  # the phase's final response to a request
    # a request's responder reports one of its phase's ``outcomes``; a role
    # that takes a response, "phase-complete"; anything else is "discarded:<why>"
    outcome: str

    @property
    def discarded(self) -> bool:
        return self.outcome.startswith("discarded:")


class BeginResult(NamedTuple):
    slot: SessionSlot | None  # the initiator's new slot; None on a drop
    outgoing: ProtocolMessage | None  # the phase request; None on a drop
    drop_reason: str | None = None


def grant_access(cloud_state: RoleState, presenter: Role, idsess_key: HierarchicalKey,
                 resource: str, sessions: dict[bytes, SessionSlot] | None = None) -> bool:
    """Whether a cloud opens a resource to a presented session key.

    Access is granted only to the session handler, only for a resource
    hosted on this cloud, and only for a key belonging to the current
    generation of the session's approved key set, as the cloud's slot
    table holds it, or ``sessions`` in its place: a cloud deciding on a
    request passes the slot the request would store, keyed by its session.
    A resource that is not text, a key that is no HierarchicalKey or a key
    set in ``sessions`` that is no SessionKeySet raises InvalidInput first.
    """
    if type(resource) is not str:
        raise InvalidInput(f"resource {resource!r} is not text")
    if type(idsess_key) is not HierarchicalKey:
        raise InvalidInput(f"session key {idsess_key!r} is not a hierarchical key")
    if sessions is not None:  # the cloud's own table holds only key sets checked here
        for slot in sessions.values():
            if type(slot.keyset) is not SessionKeySet:
                raise InvalidInput(f"key set {slot.keyset!r} is not a session key set")
    if presenter is not _SAC_SH or resource not in cloud_state.hosted_resources:
        return False
    try:
        session_id = idsess_key.session_field()
    except RoleMismatch:
        return False
    slot = (cloud_state.sessions if sessions is None else sessions).get(session_id)
    if slot is None or slot.keyset is None:
        return False
    return keylib.verify_session_key(idsess_key, slot.keyset)


def _discard(why: str) -> HandleResult:
    return _new(HandleResult, (None, None, f"discarded:{why}"))


def handle_message(state: RoleState, msg: ProtocolMessage, vault: Vault) -> HandleResult:
    """Process one message at one role; pure transition.

    Requests are answered with the phase's final response; responses arm
    the role's expectation for its next appearance in the phase sequence.
    The result carries the session's new slot, which the caller stores in
    the role's table. Anything out of order, misaddressed, of no phase
    (an index that is not an ``int`` from 1 to 13), from a role other than
    the one that sends it in the phase, or a request whose
    payload is not its phase's record or holds a value that its reader
    refuses (``InvalidInput``), is discarded (no slot).
    """
    if msg.destination is not state.role:
        return _discard("misaddressed")
    index = msg.phase_index
    if type(index) is not int or not 0 < index <= PHASE_COUNT:  # a bool is not an int here
        return _discard("unknown-phase")
    spec = PHASES[index - 1]
    sid = msg.session_id
    slot = state.sessions.get(sid)
    if msg.kind is not _REQUEST:
        if msg.source is not spec.destination:  # only the responder answers
            return _discard("wrong-source")
        if slot is None:
            return _discard("unknown-session")
        if slot.expect != spec.due:  # the response to the phase it began
            return _discard("out-of-order")
        return _new(HandleResult, (_set_expect(slot, spec.then_values), None, "phase-complete"))

    if msg.source is not spec.source:
        # The authority only entertains approval traffic forwarded by the
        # front-end; elsewhere a wrong source is a plain routing violation.
        return _discard("not-via-front-end" if state.role is _SAC else "wrong-source")
    # a request readdressed to another role is no first contact there
    first_contact = spec.first_contact and state.role is spec.destination
    if slot is None:
        if not first_contact:
            return _discard("unknown-session")
        slot = _EMPTY_SLOT
    elif first_contact:
        return _discard("duplicate-session")
    elif slot.expect != spec.awaited:
        return _discard("out-of-order")

    store, payload = spec.store, msg.payload_fields
    if type(payload) is not spec.record or len(payload) != spec.width:
        return _discard("malformed-payload")
    # the responder then waits for its next begin_phase, so it expects nothing
    carried = (None,) + payload[:spec.carry_count]
    outcome = "ok"

    try:  # the vault and grant_access check each value they read
        if index == 5:  # credential db verifies the pair and the requester's place in it
            requester, idr, ids = payload  # the slot keeps a requester only if it is text
            member = (vault.find_member(requester, idr, ids) if vault.verify_membership(idr, ids)
                      else _check_lookup(requester))  # no one to find: None
            participants = (member[:3],) if member else ()  # (tenant, cloud, sub-domain)
            slot = store(slot, carried + (participants,))
        elif spec.asks_cloud:  # a cloud decides on access, on the slot it stores if it grants
            resource = payload.resource
            granting = store(slot, carried + (slot.grants + (resource,),))
            if grant_access(state, msg.source, payload.requester_key, resource, {sid: granting}):
                slot, outcome = granting, "granted"
            else:
                slot, outcome = store(slot, carried + (slot.grants,)), "refused"
        elif spec.cloud_reports:  # session handler collects a grant
            slot = store(slot, carried + (slot.grants + (payload.resource,),))
        elif index == 7 and (type(payload.resources) is not tuple
                             or len(payload.resources) != len(_CLOUD_AT)):
            return _discard("malformed-payload")  # the handler asks each cloud for one resource
        else:
            slot = store(slot, carried)
    except InvalidInput:
        return _discard("malformed-payload")
    if spec.verifies:  # both ends of the verification report whether it found anyone
        outcome = "valid" if slot.participants else "invalid"

    reply = _new(ProtocolMessage, (sid, index, _RESPONSE, spec.destination, spec.source,
                                   _NO_PAYLOAD))
    return _new(HandleResult, (slot, reply, outcome))


def begin_phase(state: RoleState, spec: PhaseSpec, session: SessionState,
                vault: Vault) -> BeginResult:
    """Start a phase at its initiating role, emitting the phase request.

    Called by the driving loop once the previous phase has ended (or at
    application start for phase 1). The request copies the slot fields
    the phase carries; the result's slot, which the caller stores, now
    awaits the phase's response. The result is that send, or a drop: the
    authority drops the session as invalid-credentials instead of invoking
    the session handler when no participant the verification found is the
    session's tenant, or it cannot mint for them, and a cloud that granted
    nothing drops it as access-refused.
    """
    sid, index = session.session_id, spec.index
    slot = state.sessions.get(sid)
    resource = None

    if index == 1:  # A opens the session for its requester
        requester = session.requester
        slot = _set_opened(_EMPTY_SLOT, (spec.due, requester.tenant_id, session.resources,
                                         requester.idr, requester.ids))
    elif index == 7:  # the authority mints for the participants, if its requester is one
        participants = slot.participants
        if type(participants) is not tuple or slot.requester not in map(_tenant, participants):
            return _new(BeginResult, (None, None, "invalid-credentials"))
        try:
            minted = keylib.mint_session_keys(sid, participants, vault)
        except (InvalidInput, UnregisteredRealm):  # no tenants of realms the vault knows
            return _new(BeginResult, (None, None, "invalid-credentials"))
        slot = _set_expect_and_keys(slot, (spec.due, minted, minted.keys[slot.requester]))
    else:
        if spec.asks_cloud:  # the handler asks each cloud for the resource it hosts
            resource = slot.resources[_CLOUD_AT[spec.destination]]
        elif spec.cloud_reports:  # a cloud reports the one resource it hosts
            if not slot.grants:  # no grant to deliver
                return _new(BeginResult, (None, None, "access-refused"))
            resource = next(iter(state.hosted_resources))
        slot = _set_expect(slot, spec.due_values)

    values = spec.pick(slot) if resource is None else (*spec.pick(slot), resource)
    request = _new(ProtocolMessage, (sid, index, _REQUEST, spec.source, spec.destination,
                                     _new(spec.record, values)))
    return _new(BeginResult, (slot, request, None))
