"""Deterministic discrete-event simulator of the authentication network.

The topology is the two-switch star of the modelling environment: the
principal population A reaches the inter-cloud core through SW1, and SW2
fans out to the front-end, the session authority with its credential
database and session handler, and the two resource clouds. Links are
aggregated (n parallel gigabit links become one link of n-fold
bandwidth) and routing follows the tree's uplinks; nodes may only
exchange traffic along the allowed destination-preference pairs.

Message timing decomposes into a TCP-like handshake (1.5 round trips by
default), serialization at the bottleneck bandwidth, path propagation,
and a per-phase server-side service time. The service time rides on the
request leg of each phase; the closing response is network-only.

The event loop is a pure function of (scenario, seed): events are
processed in (time, insertion sequence) order, every random draw comes
from one seeded generator during setup, and repeated runs produce
byte-identical event logs.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import math
import random
from array import array
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, ClassVar, Iterator, Mapping, NamedTuple

from . import protocol as proto
from .errors import DisallowedPair, InvalidInput, is_number
from .protocol import (
    MessageKind,
    ProtocolMessage,
    Requester,
    Role,
    SessionState,
    SessionStatus,
)
from .vault import Vault

if TYPE_CHECKING:  # the scenario type lives with the harness
    from .harness import Scenario


# -- topology -----------------------------------------------------------------

# The wiring is a tree with SW2 at its core: each other node's uplink is
# (its next hop toward SW2, the gigabit links aggregated in it).
_UPLINKS = {
    "A": ("SW1", 8),
    "SW1": ("SW2", 8),
    "F": ("SW2", 8),
    "SAC": ("SW2", 4),
    "SAC-DB": ("SW2", 4),
    "SAC-SH": ("SW2", 4),
    "CloudA": ("SW2", 4),
    "CloudB": ("SW2", 4),
}

# Destination preferences: who may exchange protocol traffic with whom,
# which is exactly the two ends of each phase of the protocol.
_ALLOWED_PAIRS = frozenset(
    frozenset((spec.source.value, spec.destination.value)) for spec in proto.protocol_table())

GIGABIT = 1e9


def _toward_core(node: str) -> list[str]:
    """The node, then each next hop up to SW2."""
    hops = [node]
    while hops[-1] != "SW2":
        hops.append(_UPLINKS[hops[-1]][0])
    return hops


def _lower_end(a: str, b: str) -> str | None:
    """The end of the link between a and b that is further from SW2; None if
    a and b share no link."""
    for lower, upper in ((a, b), (b, a)):
        if _UPLINKS.get(lower, ("",))[0] == upper:
            return lower
    return None


@dataclass(frozen=True)
class Topology:
    """The two-switch tree with one propagation delay on every link and the
    gigabit link count of any link that differs from the default wiring.
    Routes are static: a path is the uplinks from both of its ends up to
    where they meet, and each link is named by its end further from SW2."""

    propagation_delay_s: float = 0.0005
    link_counts: Mapping[tuple[str, str], int] | None = None

    nodes: ClassVar[frozenset[str]] = frozenset(_UPLINKS) | {"SW2"}

    def __post_init__(self):
        if not (is_number(self.propagation_delay_s) and 0 <= self.propagation_delay_s < math.inf):
            raise InvalidInput("propagation_delay_s must be a finite, non-negative number")
        if self.link_counts is not None and not isinstance(self.link_counts, Mapping):
            raise InvalidInput("link_counts must map node pairs to link counts")
        named = set()
        for pair, count in (self.link_counts or {}).items():
            if type(pair) is not tuple or len(pair) != 2:
                raise InvalidInput(f"a link is named by a pair of nodes, not {pair!r}")
            a, b = pair
            lower = _lower_end(a, b)
            if lower is None:
                raise InvalidInput(f"no link between {a} and {b}")
            if lower in named:
                raise InvalidInput(f"the link between {a} and {b} is given twice")
            named.add(lower)
            if type(count) is not int or not is_number(count) or count < 1:  # a bool is not a count
                raise InvalidInput("link counts must be whole numbers from 1 to the largest float")

    def allowed(self, a: str, b: str) -> bool:
        return a == b or frozenset((a, b)) in _ALLOWED_PAIRS

    def path(self, a: str, b: str) -> tuple[str, ...]:
        up_a, up_b = _toward_core(a), _toward_core(b)
        while up_a and up_b and up_a[-1] == up_b[-1]:
            up_a.pop()
            up_b.pop()
        return tuple(up_a + up_b[::-1])

    def path_propagation_s(self, a: str, b: str) -> float:
        return sum(self.propagation_delay_s for _ in self.path(a, b))

    def path_bandwidth_bps(self, a: str, b: str) -> float:
        """Bottleneck bandwidth: aggregated links count as one fat link. A path
        from a node to itself crosses no link, so nothing narrows it."""
        overrides = {_lower_end(*pair): n for pair, n in (self.link_counts or {}).items()}
        return min((GIGABIT * overrides.get(lower, _UPLINKS[lower][1])
                    for lower in self.path(a, b)), default=math.inf)


# -- connection model ----------------------------------------------------------

@dataclass(frozen=True)
class ConnectionModel:
    """Handshake-plus-transfer timing parameters."""

    handshake_rtts: float = 1.5
    per_phase_service_s: float = 4.55
    rtt_base_s: float = 0.001

    def __post_init__(self):
        for name in ("handshake_rtts", "per_phase_service_s", "rtt_base_s"):
            value = getattr(self, name)
            if not (is_number(value) and 0 <= value < math.inf):  # NaN fails too
                raise InvalidInput(f"{name} must be a finite, non-negative number")


def transmit_components(payload_bytes: int, source: str, destination: str,
                        model: ConnectionModel, topo: Topology,
                        service_s: float | None = None) -> tuple[float, float]:
    """(network seconds, total delivery offset seconds) for one message.

    network = handshake + serialization at the bottleneck + propagation;
    the total adds the server-side service time (defaults to the model's
    per-phase service time; pass 0.0 for a bare acknowledgment).
    """
    if not topo.allowed(source, destination):
        raise DisallowedPair(f"{source} may not talk to {destination}")
    propagation = topo.path_propagation_s(source, destination)
    rtt = model.rtt_base_s + 2.0 * propagation
    serialization = payload_bytes * 8.0 / topo.path_bandwidth_bps(source, destination)
    network = model.handshake_rtts * rtt + serialization + propagation
    service = model.per_phase_service_s if service_s is None else service_s
    return network, network + service


# -- stalls ---------------------------------------------------------------------

@dataclass(frozen=True)
class Stall:
    """The role that answers a phase sits on its response; inf suppresses it entirely."""

    role: Role
    phase_index: int
    extra_delay_s: float

    def __post_init__(self):
        if not isinstance(self.role, Role):
            raise InvalidInput(f"role must be a Role, not {self.role!r}")
        if type(self.phase_index) is not int or not 1 <= self.phase_index <= proto.PHASE_COUNT:
            raise InvalidInput(f"phase_index must be a whole number 1..{proto.PHASE_COUNT}")
        responder = proto.phase_spec(self.phase_index).destination
        if self.role is not responder:
            raise InvalidInput(f"phase {self.phase_index} is answered by {responder.value}")
        if not (is_number(self.extra_delay_s) and self.extra_delay_s >= 0):  # NaN fails too
            raise InvalidInput("extra_delay_s must be a non-negative number")


def inject_stall(scenario: "Scenario", role: Role, phase_index: int,
                 extra_delay_s: float) -> "Scenario":
    """A copy of the scenario with one more injected response stall."""
    stall = Stall(role=role, phase_index=phase_index, extra_delay_s=extra_delay_s)
    return replace(scenario, stalls=scenario.stalls + (stall,))


# -- event log -------------------------------------------------------------------

LOG_HEADER = ("time_s", "sequence", "kind", "source", "destination",
              "session_id", "phase_index", "payload_bytes", "outcome")

# the outcome of a delivery to an ended session, absorbed before any role sees it
ABSORBED = "discarded:session-not-in-progress"


class Record(NamedTuple):
    """One event-log line."""

    time_s: float
    kind: str
    source: str
    destination: str
    session_id: str
    phase_index: int | None
    payload_bytes: int | None
    outcome: str


class EventLog:
    """The event log as three columns with one entry per record: its time,
    its session (an index into ``session_ids``, where 0 is the empty id of a
    record with no session) and its shape (a code into ``shapes``, the
    distinct (kind, source, destination, phase, size, outcome) rows). All
    the records of a run share a few dozen shapes, so the log keeps no
    Python object per record. A record's sequence is its index. Read by
    index or by iteration, the log yields ``Record``s."""

    def __init__(self) -> None:
        self.times = array("d")
        self.sessions = array("I")  # harness.MAX_SESSIONS keeps the index small
        self.codes = array("H")
        self.session_ids: list[str] = [""]
        self.shapes: list[tuple] = []
        self._code_of: dict[tuple, int] = {}

    def add_session(self, session_id: str) -> int:
        """The index under which records name this session's id."""
        self.session_ids.append(session_id)
        return len(self.session_ids) - 1

    def shape(self, *row) -> int:
        """The code of a (kind, source, destination, phase, size, outcome) row."""
        code = self._code_of.get(row)
        if code is None:
            code = self._code_of[row] = len(self.shapes)
            self.shapes.append(row)
        return code

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: int) -> Record:
        kind, source, destination, phase, size, outcome = self.shapes[self.codes[index]]
        return Record(self.times[index], kind, source, destination,
                      self.session_ids[self.sessions[index]], phase, size, outcome)

    def __iter__(self) -> Iterator[Record]:
        ids, shapes = self.session_ids, self.shapes
        for time_s, session, code in zip(self.times, self.sessions, self.codes):
            kind, source, destination, phase, size, outcome = shapes[code]
            yield Record(time_s, kind, source, destination, ids[session], phase, size, outcome)


def csv_lines(log: EventLog) -> Iterator[str]:
    """The event log as CSV lines, header first, each ending in a newline; a
    record's sequence is its log index, and an absent phase or size is empty.
    The fields around the session id are formatted once per shape."""
    yield ",".join(LOG_HEADER) + "\n"
    heads = [f"{kind},{source},{destination}," for kind, source, destination, *_ in log.shapes]
    tails = [f",{'' if phase is None else phase},{'' if size is None else size},{outcome}\n"
             for *_, phase, size, outcome in log.shapes]
    ids = log.session_ids
    for sequence, (time_s, session, code) in enumerate(zip(log.times, log.sessions, log.codes)):
        yield f"{time_s:.9f},{sequence},{heads[code]}{ids[session]}{tails[code]}"


def records_to_csv(log: EventLog) -> str:
    return "".join(csv_lines(log))


class _DeliverCodes(dict):
    """One phase leg's deliver-record shape code for each outcome, each
    made on the outcome's first delivery."""

    def __init__(self, log: EventLog, source: str, destination: str, phase: int, size: int):
        super().__init__()
        self.log = log
        self.facts = (source, destination, phase, size)

    def __missing__(self, outcome: str) -> int:
        code = self[outcome] = self.log.shape("deliver", *self.facts, outcome)
        return code


# -- default registry --------------------------------------------------------------

_METADATA_CLASSES = ("spouse", "pet", "first_school")


def build_default_vault(principals: int) -> tuple[Vault, dict[str, Requester]]:
    """Vault with the two resource clouds plus the requesters' home realm.

    Each principal fronts for one tenant of CloudC; the tenants'
    credentials are returned for handing to role A at session start.
    """
    vault = Vault()
    for cloud in ("CloudA", "CloudB", "CloudC"):
        secret = hashlib.sha256(b"crossrealm-master|" + cloud.encode()).digest()
        vault.register_cloud(cloud, secret)
    vault.register_subdomain("CloudA", "bi")
    vault.register_subdomain("CloudB", "bi")
    vault.register_subdomain("CloudC", "analysts")
    requesters = {}
    for p in range(principals):
        tenant_id = f"user-{p:04d}"
        idr, ids, _private = vault.register_tenant(
            "CloudC", "analysts", tenant_id,
            primary_details={"plan": "standard"},
            extension_metadata={cls: f"{cls}-of-{tenant_id}" for cls in _METADATA_CLASSES},
        )
        requesters[tenant_id] = Requester(tenant_id=tenant_id, idr=idr, ids=ids)
    return vault, requesters


# -- the engine ----------------------------------------------------------------------

@dataclass
class SimRun:
    """The scenario a run was made from and everything it produced: the log,
    final states, and flags."""

    records: EventLog
    sessions: dict[bytes, SessionState]
    role_states: dict[Role, proto.RoleState]
    scenario: "Scenario"
    max_network_delay_s: float
    horizon_exceeded: bool


class _Engine:
    def __init__(self, scenario: "Scenario"):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        self.mode = scenario.timeout_mode
        self.topology = scenario.topology
        self.model = scenario.connection
        self.vault, self.requesters = build_default_vault(scenario.principals)
        self.roles = proto.initial_role_states(
            {scenario.resources[0]: Role.CLOUD_A, scenario.resources[1]: Role.CLOUD_B})
        stalls = {(s.role, s.phase_index): s.extra_delay_s for s in scenario.stalls}
        request_bytes = scenario.phase_request_bytes or {}
        response_bytes = scenario.phase_response_bytes or {}
        self.events = events = EventLog()
        # each record appends one entry to each of the log's three columns
        self._log_time = events.times.append
        self._log_session = events.sessions.append
        self._log_code = events.codes.append
        # Every message of one (phase, kind) takes the same path with the
        # same size, the scenario's or else the protocol table's, so its
        # timing is computed once, as (network, delivery offset, stall, send
        # record's shape code, deliver record's code by outcome); a response
        # stall of inf suppresses the response. The service time rides on the
        # request leg; the response is network-only.
        self.legs: dict[tuple[int, MessageKind],
                        tuple[float, float, float, int, _DeliverCodes]] = {}
        for spec in proto.protocol_table():
            src, dst, i = spec.source.value, spec.destination.value, spec.index
            size = request_bytes.get(i, spec.request_bytes)
            self.legs[i, MessageKind.REQUEST] = (*transmit_components(
                size, src, dst, self.model, self.topology), 0.0,
                events.shape("send", src, dst, i, size, "ok"),
                _DeliverCodes(events, src, dst, i, size))
            size = response_bytes.get(i, spec.response_bytes)
            self.legs[i, MessageKind.RESPONSE] = (*transmit_components(
                size, dst, src, self.model, self.topology, service_s=0.0),
                stalls.get((spec.destination, i), 0.0),
                events.shape("send", dst, src, i, size, "ok"),
                _DeliverCodes(events, dst, src, i, size))
        self.sessions: dict[bytes, SessionState] = {}
        # each session id -> the index of its hex string in the log, which
        # is made once when the id is drawn
        self.session_index: dict[bytes, int] = {}
        self.heap: list = []
        self.now = 0.0
        self.event_seq = 0
        self.max_network_delay = 0.0
        self.horizon_exceeded = False

    # -- scheduling ------------------------------------------------------

    def schedule(self, time: float, handler, *args) -> None:
        """Call handler(*args) at time; ties run in scheduling order."""
        heapq.heappush(self.heap, (time, self.event_seq, handler, args))
        self.event_seq += 1

    def log(self, code: int, session_id: bytes | None = None) -> None:
        """Log a record of the shape with this code, now."""
        self._log_time(self.now)
        self._log_session(self.session_index[session_id] if session_id else 0)
        self._log_code(code)

    def log_row(self, kind: str, source: str = "", session_id: bytes | None = None,
                phase_index: int | None = None, outcome: str = "ok") -> None:
        """Log a record of no message (no destination, no size) given by its facts, now."""
        self.log(self.events.shape(kind, source, "", phase_index, None, outcome), session_id)

    def setup(self) -> None:
        sc = self.scenario
        lo, hi = sc.app_start_offset_s
        for p in range(sc.principals):
            profile_start = sc.network_start_offset_s + self.rng.uniform(lo, hi)
            self.schedule(profile_start, self.log_row, "app-start", "A")
            count = sc.sessions_per_principal
            if count == "mean2":
                count = self.rng.choice((1, 2, 3))
            for _ in range(count):
                start = profile_start + self.rng.uniform(0.0, sc.session_spread_s)
                sid = self.rng.getrandbits(128).to_bytes(16, "big")
                self.session_index[sid] = self.events.add_session(sid.hex())
                self.schedule(start, self._on_session_start, sid, p)

    def loop(self) -> None:
        horizon = self.scenario.horizon_s
        while self.heap:
            time, _, handler, args = heapq.heappop(self.heap)
            if time > horizon:
                self.horizon_exceeded = True
                break
            self.now = time
            handler(*args)

    # -- event handlers -----------------------------------------------------

    def _on_session_start(self, session_id: bytes, principal: int) -> None:
        session = SessionState(
            session_id=session_id,
            requester=self.requesters[f"user-{principal:04d}"],
            principal=f"principal-{principal:04d}",
            resources=self.scenario.resources,
            started_at=self.now,
        )
        self.sessions[session_id] = session
        self.log_row("session-start", source="A", session_id=session_id)
        self._begin_phase(1, session)

    def _on_deliver(self, msg: ProtocolMessage, delivered: _DeliverCodes) -> None:
        session = self.sessions.get(msg.session_id)
        if session is not None and session.status is not SessionStatus.IN_PROGRESS:
            # Drop absorption: nothing may alter a finished session.
            self.log(delivered[ABSORBED], msg.session_id)
            return
        state = self.roles[msg.destination]
        result = proto.handle_message(state, msg, self.vault)
        self.log(delivered[result.outcome], msg.session_id)
        if result.slot is None:  # discarded
            return
        state.sessions[msg.session_id] = result.slot
        if result.outgoing is not None:
            self._send(result.outgoing)
        if result.outcome == "phase-complete":
            self._complete_phase(session, msg)

    def _on_phase_timer(self, session_id: bytes, phase_index: int) -> None:
        # armed at phase start + limit: a phase still open now has expired
        session = self.sessions[session_id]
        still_open = session.current_phase < phase_index
        self._timer_fired(proto.phase_spec(phase_index).source, phase_index, session,
                          proto.on_timeout(session, phase_index) if still_open else session)

    def _on_f_watchdog(self, session_id: bytes) -> None:
        session = self.sessions[session_id]
        # F's slot holds a key set only once phase 12 delivered the grant
        granted = self.roles[Role.F].sessions[session_id].keyset is not None
        self._timer_fired(Role.F, None, session,
                          session if granted else proto.localized_timeout_at_f(session))

    def _timer_fired(self, role: Role, phase_index: int | None,
                     before: SessionState, after: SessionState) -> None:
        """Log a timer; it expired if its transition returned a new session, else it is ignored."""
        expired = after is not before
        self.log_row("timer-fire", source=role.value, session_id=before.session_id,
                     phase_index=phase_index, outcome="expired" if expired else "ignored")
        if expired:
            self._end(after)

    # -- helpers -----------------------------------------------------------

    def _begin_phase(self, index: int, session: SessionState) -> None:
        spec = proto.phase_spec(index)
        state = self.roles[spec.source]
        result = proto.begin_phase(state, spec, session, self.vault)
        if result.drop_reason is not None:
            self._end(session._replace(status=SessionStatus.DROPPED,
                                       drop_reason=result.drop_reason))
            return
        state.sessions[session.session_id] = result.slot
        self._send(result.outgoing)
        if self.mode.kind == "per-phase":
            self.schedule(self.now + self.mode.seconds, self._on_phase_timer,
                          session.session_id, index)

    def _send(self, msg: ProtocolMessage) -> None:
        network, offset, stall, send, delivered = self.legs[msg.phase_index, msg.kind]
        if stall == math.inf:
            return  # response suppressed outright
        if network > self.max_network_delay:
            self.max_network_delay = network
        self.log(send, msg.session_id)
        self.schedule(self.now + offset + stall, self._on_deliver, msg, delivered)

    def _complete_phase(self, session: SessionState, final_response: ProtocolMessage) -> None:
        session = proto.advance_phase(session)
        if session.status is SessionStatus.COMPLETED:
            self._end(session, final_response.destination.value)
            return
        self.sessions[session.session_id] = session
        done = session.current_phase
        if done == 4 and self.mode.kind == "localized-f":
            self.schedule(self.now + self.mode.seconds, self._on_f_watchdog,
                          session.session_id)
        self._begin_phase(done + 1, session)

    def _end(self, session: SessionState, source: str = "") -> None:
        """Stamp a finished session's end, store it and log its one end record."""
        session = session._replace(ended_at=self.now)
        self.sessions[session.session_id] = session
        completed = session.status is SessionStatus.COMPLETED
        self.log_row("session-complete" if completed else "session-drop", source,
                     session_id=session.session_id, phase_index=session.current_phase,
                     outcome="completed" if completed else f"dropped:{session.drop_reason}")

    def result(self) -> SimRun:
        return SimRun(
            records=self.events,
            sessions=self.sessions,
            role_states=self.roles,
            scenario=self.scenario,
            max_network_delay_s=self.max_network_delay,
            horizon_exceeded=self.horizon_exceeded,
        )


def run(scenario: "Scenario") -> SimRun:
    """Run one scenario to completion or horizon; pure in the scenario.

    Cyclic garbage collection is paused while the event loop runs: the
    loop makes no reference cycles, and every full collection would walk
    the whole event log for nothing. The caller's setting is restored on
    the way out, also when a handler raises.
    """
    engine = _Engine(scenario)
    engine.setup()
    collecting = gc.isenabled()
    gc.disable()
    try:
        engine.loop()
    finally:
        if collecting:
            gc.enable()
    return engine.result()
