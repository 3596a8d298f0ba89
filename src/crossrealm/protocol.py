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
with the one message the role sends, if any. Each role's slot table
(RoleState.sessions) is owned by the driving loop, which stores the
returned slot in place, so a transition costs the same however many
sessions a role holds. A single session must be driven by one logical
event stream while distinct sessions can proceed concurrently against a
shared read-only vault.

Messages that do not fit the expected (phase, kind) for their session
are discarded, never buffered. The session authority additionally
refuses to learn about any session whose approval request did not
arrive through the front-end.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from types import MappingProxyType
from typing import Mapping, NamedTuple

from . import keys as keylib
from .errors import InvalidInput, RoleMismatch, is_number
from .keys import HierarchicalKey, KeyPart, SessionKeySet
from .vault import Vault


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
        return f"{self.kind}:{self.seconds:g}"


@dataclass(frozen=True)
class PhaseSpec:
    """One row of the protocol task table, sized by the paper's defaults."""

    index: int
    name: str
    source: Role
    destination: Role
    request_bytes: int
    response_bytes: int
    carries: tuple[str, ...]  # SessionSlot fields the request copies to the responder


# Phase table: (index, name, source, destination, request bytes, carried
# slot fields). A requesting exchange carries 1024 bytes; an exchange that
# delivers credentials, a session key, or an access grant carries 4096.
# Every phase-closing final response is a bare 1024-byte acknowledgment.
_R = Role
_TABLE = (
    (1, "Secure (Request, R1, R2)", _R.A, _R.F, 1024, ("requester", "principal", "resources")),
    (2, "Secure (Request, IDr, IDs)", _R.F, _R.A, 1024, ()),
    (3, "Secure (Response, IDr, IDs)", _R.A, _R.F, 4096, ("idr", "ids")),
    (4, "Fetch (R1, R2): IF Valid (IDr, IDs)", _R.F, _R.SAC, 1024,
     ("requester", "resources", "idr", "ids")),
    (5, "Verify (IDr, IDs)", _R.SAC, _R.SAC_DB, 1024, ("requester", "idr", "ids")),
    (6, "Valid (IDr, IDs)", _R.SAC_DB, _R.SAC, 4096, ("verdict", "realm")),
    (7, "Invoke (Key, IDsess): Fetch (R1, R2)", _R.SAC, _R.SAC_SH, 4096,
     ("keyset", "requester_key", "resources")),
    (8, "Secure (Access, R1)", _R.SAC_SH, _R.CLOUD_A, 1024, ("keyset", "requester_key")),
    (9, "Secure (Access, R1)", _R.CLOUD_A, _R.SAC_SH, 4096, ()),
    (10, "Secure (Request, R2): IF Key (IDsess)", _R.SAC_SH, _R.CLOUD_B, 1024,
     ("keyset", "requester_key")),
    (11, "Secure (Access, R2)", _R.CLOUD_B, _R.SAC_SH, 4096, ()),
    (12, "Secure (Access, R1, R2): Key (IDsess)", _R.SAC_SH, _R.F, 4096,
     ("grants", "requester_key", "keyset")),
    (13, "Secure (Access, R1, R2): Key (IDsess)", _R.F, _R.A, 4096, ("grants", "requester_key")),
)

PHASE_COUNT = len(_TABLE)
ACK_BYTES = 1024

_PHASES = tuple(
    PhaseSpec(index, name, source, destination, req_bytes, ACK_BYTES, carries)
    for index, name, source, destination, req_bytes, carries in _TABLE)


def protocol_table() -> tuple[PhaseSpec, ...]:
    """The ordered 13-phase table. A run's byte-size overrides are the
    network's business: the simulator applies them to its own legs."""
    return _PHASES


def phase_spec(index: int) -> PhaseSpec:
    return _PHASES[index - 1]


class ProtocolMessage(NamedTuple):
    session_id: bytes
    phase_index: int
    kind: MessageKind
    source: Role
    destination: Role
    payload_fields: Mapping[str, object]


# the payload of every response: a bare acknowledgment carries no fields
_NO_PAYLOAD: Mapping[str, object] = MappingProxyType({})


# -- session bookkeeping ------------------------------------------------------

class SessionStatus(Enum):
    IN_PROGRESS = "in-progress"
    COMPLETED = "completed"
    DROPPED = "dropped"


@dataclass(frozen=True)
class Requester:
    """The foreign-realm tenant a session is requested for."""

    tenant_id: str
    idr: KeyPart
    ids: KeyPart


class SessionState(NamedTuple):
    """Progress of one session through the phase sequence."""

    session_id: bytes
    requester: Requester
    principal: str
    resources: tuple[str, str]
    current_phase: int = 0
    status: SessionStatus = SessionStatus.IN_PROGRESS
    # "phase-timeout(<k>)", "localized-timeout", "invalid-credentials" or "access-refused"
    drop_reason: str | None = None
    started_at: float | None = None
    ended_at: float | None = None


def advance_phase(session: SessionState) -> SessionState:
    """Complete phase current_phase + 1 on arrival of its final response.

    Phase order needs no check here: the engine begins phase k only once
    phase k - 1 is complete, and a role accepts only the response to the
    phase it began, so every completion is for the next phase.
    """
    if session.status is not SessionStatus.IN_PROGRESS:
        return session
    done = session.current_phase + 1
    if done == PHASE_COUNT:
        return session._replace(current_phase=done, status=SessionStatus.COMPLETED)
    return session._replace(current_phase=done)


def on_timeout(session: SessionState, phase_index: int) -> SessionState:
    """Drop a session whose per-phase timer fired with its phase still open.

    The timer is armed at phase start + limit, so its firing is the expiry.
    """
    if session.status is not SessionStatus.IN_PROGRESS:
        return session
    return session._replace(status=SessionStatus.DROPPED,
                            drop_reason=f"phase-timeout({phase_index})")


def localized_timeout_at_f(session: SessionState) -> SessionState:
    """The front-end watchdog: drop a session whose cloud-side answer is overdue.

    The engine arms it when F forwards the approval request (phase 4
    complete), to fire limit seconds later, and calls this if F still
    lacks the grant delivery of phase 12 then.
    """
    if session.status is not SessionStatus.IN_PROGRESS:
        return session
    return session._replace(status=SessionStatus.DROPPED,
                            drop_reason="localized-timeout")


# -- role state ---------------------------------------------------------------

class SessionSlot(NamedTuple):
    """What one role remembers about one session."""

    expect: tuple[int, MessageKind] | None = None
    requester: str | None = None
    principal: str | None = None
    resources: tuple[str, str] | None = None
    idr: KeyPart | None = None
    ids: KeyPart | None = None
    verdict: bool | None = None
    realm: tuple[str, str, str] | None = None  # (tenant, cloud, subdomain)
    keyset: SessionKeySet | None = None
    requester_key: HierarchicalKey | None = None
    grants: tuple[str, ...] = ()  # a cloud's own grant; the grants the handler collected


@dataclass(frozen=True)
class RoleState:
    """One role's hosted resources and slot table.

    The driving loop owns it: transitions only read it, and the caller
    stores each returned slot in ``sessions``; a discard changes nothing.
    """

    role: Role
    hosted_resources: frozenset[str] = frozenset()
    sessions: dict[bytes, SessionSlot] = field(default_factory=dict)


def initial_role_states(resource_hosting: Mapping[str, Role] | None = None,
                        ) -> dict[Role, RoleState]:
    """Fresh state for all seven roles; R1 on CloudA, R2 on CloudB by default."""
    hosting = resource_hosting or {"R1": Role.CLOUD_A, "R2": Role.CLOUD_B}
    states = {}
    for role in Role:
        hosted = frozenset(r for r, owner in hosting.items() if owner is role)
        states[role] = RoleState(role=role, hosted_resources=hosted)
    return states


def _next_request(role: Role, after: int) -> int | None:
    """The phase whose request this role receives next, after phase ``after``.

    None when the role's next row names it as source: begin_phase arms the
    role then. The table never gives one role two consecutive turns as
    source, so after such a turn the role next appears as a destination.
    """
    for spec in _PHASES[after:]:
        if role in (spec.source, spec.destination):
            return spec.index if spec.destination is role else None
    return None


# Phase at which each role first hears of a session (as a destination); A,
# the source of phase 1, opens the session itself.
_FIRST_CONTACT = {role: _next_request(role, 0) for role in Role}

# (role, phase) -> what the role expects once that phase's response reached
# it: the request of its next turn as destination, or None (begin_phase arms it)
_NEXT_EXPECT = {
    (role, spec.index): None if following is None else (following, MessageKind.REQUEST)
    for role in Role for spec in _PHASES
    for following in (_next_request(role, spec.index),)}


class HandleResult(NamedTuple):
    slot: SessionSlot | None  # the session's new slot at the role; None on a discard
    outgoing: ProtocolMessage | None  # the phase's final response to a request
    outcome: str  # "ok", "phase-complete", "granted", ... or "discarded:<why>"

    @property
    def discarded(self) -> bool:
        return self.outcome.startswith("discarded:")


class BeginResult(NamedTuple):
    slot: SessionSlot | None  # the initiator's new slot; None on a drop
    outgoing: ProtocolMessage | None  # the phase request; None on a drop
    drop_reason: str | None = None


def grant_access(cloud_state: RoleState, presenter: Role, idsess_key: HierarchicalKey,
                 resource: str) -> bool:
    """Whether a cloud opens a resource to a presented session key.

    Access is granted only to the session handler, only for a resource
    hosted on this cloud, and only for a key belonging to the current
    generation of the session's approved key set.
    """
    if presenter is not Role.SAC_SH:
        return False
    if resource not in cloud_state.hosted_resources:
        return False
    try:
        session_id = idsess_key.session_field()
    except RoleMismatch:
        return False
    slot = cloud_state.sessions.get(session_id)
    if slot is None or slot.keyset is None:
        return False
    return keylib.verify_session_key(idsess_key, slot.keyset)


def _discard(why: str) -> HandleResult:
    return HandleResult(None, None, f"discarded:{why}")


def handle_message(state: RoleState, msg: ProtocolMessage, vault: Vault) -> HandleResult:
    """Process one message at one role; pure transition.

    Requests are answered with the phase's final response; responses arm
    the role's expectation for its next appearance in the phase sequence.
    The result carries the session's new slot, which the caller stores in
    the role's table. Anything out of order is discarded (no slot).
    """
    if msg.destination is not state.role:
        return _discard("misaddressed")
    spec = _PHASES[msg.phase_index - 1]
    if msg.kind is MessageKind.REQUEST:
        return _handle_request(state, spec, msg, vault)
    return _handle_response(state, spec, msg)


def _handle_response(state: RoleState, spec: PhaseSpec, msg: ProtocolMessage) -> HandleResult:
    slot = state.sessions.get(msg.session_id)
    if slot is None:
        return _discard("unknown-session")
    if slot.expect != (spec.index, MessageKind.RESPONSE):
        return _discard("out-of-order")
    slot = slot._replace(expect=_NEXT_EXPECT[state.role, spec.index])
    return HandleResult(slot, None, "phase-complete")


def _handle_request(state: RoleState, spec: PhaseSpec, msg: ProtocolMessage,
                    vault: Vault) -> HandleResult:
    if msg.source is not spec.source:
        # The authority only entertains approval traffic forwarded by the
        # front-end; elsewhere a wrong source is a plain routing violation.
        if state.role is Role.SAC:
            return _discard("not-via-front-end")
        return _discard("wrong-source")

    slot = state.sessions.get(msg.session_id)
    first_contact = _FIRST_CONTACT[state.role] == spec.index
    if slot is None:
        if not first_contact:
            return _discard("unknown-session")
        slot = SessionSlot()
    elif first_contact:
        return _discard("duplicate-session")
    elif slot.expect != (spec.index, MessageKind.REQUEST):
        return _discard("out-of-order")

    fields = msg.payload_fields
    # store what the phase carries; the responder then waits for its next begin_phase
    changes = {name: fields[name] for name in spec.carries}
    changes["expect"] = None
    outcome = "ok"

    if spec.index == 5:  # credential db verifies the pair and the requester's place in it
        idr, ids = fields["idr"], fields["ids"]
        valid = vault.verify_membership(idr, ids)
        member = vault.find_member(fields["requester"], idr, ids) if valid else None
        realm = (member.tenant_id, member.cloud_id, member.subdomain_id) if member else None
        changes.update(verdict=member is not None, realm=realm)
    elif spec.index in (8, 10):  # a cloud decides on access
        # decided on a one-entry view holding the slot with what the request carries
        view = RoleState(state.role, state.hosted_resources,
                         {msg.session_id: slot._replace(**changes)})
        resource = fields["resource"]
        granted = grant_access(view, msg.source, fields["requester_key"], resource)
        changes["grants"] = slot.grants + ((resource,) if granted else ())
        outcome = "granted" if granted else "refused"
    elif spec.index in (9, 11):  # session handler collects a grant
        changes["grants"] = slot.grants + (fields["resource"],)
    slot = slot._replace(**changes)
    if spec.index in (5, 6):  # both ends of the verification report its verdict
        outcome = "valid" if slot.verdict else "invalid"

    reply = ProtocolMessage(msg.session_id, spec.index, MessageKind.RESPONSE, spec.destination,
                            spec.source, _NO_PAYLOAD)
    return HandleResult(slot, reply, outcome)


def begin_phase(state: RoleState, spec: PhaseSpec, session: SessionState,
                vault: Vault) -> BeginResult:
    """Start a phase at its initiating role, emitting the phase request.

    Called by the driving loop once the previous phase has ended (or at
    application start for phase 1). The request copies the slot fields
    the phase carries; the result's slot, which the caller stores, now
    awaits the phase's response. The result is that send, or a drop: the
    authority drops the session as invalid-credentials instead of invoking
    the session handler when the verdict was negative, and a cloud that
    granted nothing drops it as access-refused.
    """
    sid = session.session_id
    slot = state.sessions.get(sid)
    extra = {}
    changes = {"expect": (spec.index, MessageKind.RESPONSE)}  # the initiator awaits the response

    if spec.index == 1:  # A opens the session for its requester
        slot = SessionSlot(requester=session.requester.tenant_id, principal=session.principal,
                           resources=session.resources,
                           idr=session.requester.idr, ids=session.requester.ids)
    elif spec.index == 7:  # the authority mints the key set, or drops the session
        if not slot.verdict:
            return BeginResult(None, None, "invalid-credentials")
        minted = keylib.mint_session_keys(sid, [slot.realm], vault)
        changes.update(keyset=minted, requester_key=minted.keys[slot.realm[0]])
    elif spec.index in (8, 10):  # the handler asks each cloud for the resource it hosts
        extra = {"resource": slot.resources[0 if spec.destination is Role.CLOUD_A else 1]}
    elif spec.index in (9, 11):  # a cloud reports the one resource it hosts
        if not slot.grants:  # no grant to deliver
            return BeginResult(None, None, "access-refused")
        extra = {"resource": next(iter(state.hosted_resources))}

    slot = slot._replace(**changes)
    request = ProtocolMessage(
        sid, spec.index, MessageKind.REQUEST, spec.source, spec.destination,
        {**{name: getattr(slot, name) for name in spec.carries}, **extra})
    return BeginResult(slot, request)
