"""Deterministic discrete-event simulator of the authentication network.

The topology is the two-switch star of the modelling environment: the
principal population A reaches the inter-cloud core through SW1, and SW2
fans out to the front-end, the session authority with its credential
database and session handler, and the resource clouds. Links are
aggregated (n parallel gigabit links become one link of n-fold
bandwidth) and routing follows the tree's uplinks. Only a phase's two
ends exchange traffic: the engine sends on its phases' legs alone.

A message's network time decomposes into a TCP-like handshake (1.5 round
trips by default), serialization at the bottleneck bandwidth and path
propagation. A request's delivery adds the per-phase server-side service
time; the closing response is network-only.

The event loop is a pure function of (scenario, seed): events are
processed in (time, insertion sequence) order, every random draw comes
from one seeded generator during setup, and repeated runs produce
byte-identical event logs. Pending events wait in an event calendar: one
time-ordered queue per phase leg, one for the run's timers (per-phase or
F's watchdog, never both) and one each for the app and session starts,
merged by a heap that holds the head of each queue. Each phase is wired
once a run, as three handlers that hold what they use (its role states,
leg timings, record codes, queues and the next phase's begin), so a
message looks nothing up on the engine.

The event log is formatted as CSV by ``csv_lines`` and read back from a
file by ``read_event_log``. Every record a run may log, by its kind, ends
and phase, is one entry of ``_RULES``, with the outcomes it may give, so
``EventLog.shape`` refuses any other, in a run and in a log read back.
"""

from __future__ import annotations

import gc
import hashlib
import heapq
import itertools
import math
import random
import re
from array import array
from collections import deque
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Callable, ClassVar, Iterator, NamedTuple

from . import protocol as proto
from .errors import InvalidInput, ScenarioParseError, is_number
from .protocol import (
    PHASES,
    Requester,
    Role,
    SessionState,
    SessionStatus,
    set_dropped,
    set_ended,
)
from .vault import Vault

if TYPE_CHECKING:  # the scenario type lives with the harness
    from .harness import Scenario

# the enum members the event handlers test, bound once (see protocol._SAC)
_F = Role.F
_IN_PROGRESS, _COMPLETED, _DROPPED = (SessionStatus.IN_PROGRESS, SessionStatus.COMPLETED,
                                      SessionStatus.DROPPED)
_new = tuple.__new__  # builds a NamedTuple from all its values (see protocol._new)


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
    **{cloud.value: ("SW2", 4) for cloud, _, _ in proto.RESOURCE_CLOUDS},
}

GIGABIT = 1e9


def _toward_core(node: str) -> list[str]:
    """The node, then each next hop up to SW2."""
    hops = [node]
    while hops[-1] != "SW2":
        hops.append(_UPLINKS[hops[-1]][0])
    return hops


@dataclass(frozen=True)
class Topology:
    """The two-switch tree with one propagation delay on every link. Routes
    are static: a path is the uplinks from both of its ends up to where they
    meet, and each link is named by its end further from SW2."""

    propagation_delay_s: float = 0.0005

    nodes: ClassVar[frozenset[str]] = frozenset(_UPLINKS) | {"SW2"}

    def __post_init__(self):
        if not (is_number(self.propagation_delay_s) and 0 <= self.propagation_delay_s < math.inf):
            raise InvalidInput("propagation_delay_s must be a finite, non-negative number")

    def path(self, a: str, b: str) -> tuple[str, ...]:
        up_a, up_b = _toward_core(a), _toward_core(b)
        while up_a and up_b and up_a[-1] == up_b[-1]:
            up_a.pop()
            up_b.pop()
        return tuple(up_a + up_b[::-1])


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
                        model: ConnectionModel, topo: Topology) -> float:
    """The network seconds of one message: the handshake's round trips,
    serialization at the path's bottleneck (aggregated links count as one
    fat link) and propagation over each of its links. A path from a node to
    itself crosses no link, so it costs the handshake alone."""
    propagation, bandwidth = 0.0, math.inf
    for lower in topo.path(source, destination):
        propagation += topo.propagation_delay_s
        bandwidth = min(bandwidth, GIGABIT * _UPLINKS[lower][1])
    rtt = model.rtt_base_s + 2.0 * propagation
    return model.handshake_rtts * rtt + payload_bytes * 8.0 / bandwidth + propagation


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
        responder = PHASES[self.phase_index - 1].destination
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


# an event-log line's fields: a record's, its sequence after its time
LOG_HEADER = ("time_s", "sequence", *Record._fields[1:])

# (kind, source, destination, phase) of each record a run logs -> (the
# outcomes it gives, and the prefix of the "<prefix><why>" outcomes it
# gives too, or None)
_OK, _FIRED = (("ok",), None), (("expired", "ignored"), None)
_RULES = {
    ("app-start", "A", "", None): _OK, ("session-start", "A", "", None): _OK,
    **{("session-drop", "", "", done): ((), "dropped:") for done in range(len(PHASES))},
    ("session-complete", PHASES[-1].source.value, "", len(PHASES)): (("completed",), None),
    ("timer-fire", _F.value, "", None): _FIRED,
    **{("timer-fire", spec.source.value, "", spec.index): _FIRED for spec in PHASES},
    **{(kind, source, destination, spec.index): rule for spec in PHASES
       for source, destination, outcomes in (
           (spec.source.value, spec.destination.value, spec.outcomes),
           (spec.destination.value, spec.source.value, ("phase-complete",)))
       for kind, rule in (("send", _OK), ("deliver", (outcomes, "discarded:")))},
}


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
        """The code of a (kind, source, destination, phase, size, outcome) row.
        A row is one a run logs if its (kind, source, destination, phase) is
        in ``_RULES``, its size is a whole number on a message (a send or
        deliver, the records with a destination) and None on any other, and
        its outcome is one its rule gives, or its rule's prefix and a reason;
        any other raises ValueError when first met."""
        code = self._code_of.get(row)
        if code is None:
            kind, source, destination, phase, size, outcome = row
            rule = _RULES.get(row[:4])
            if rule is None:
                raise ValueError(f"no run logs a {kind!r} from {source!r} to "
                                 f"{destination!r} at phase {phase!r}")
            if not (type(size) is int and size >= 0 if destination else size is None):
                raise ValueError(f"a {kind} has a size of {size!r}")
            outcomes, prefix = rule
            if not (outcome in outcomes or prefix is not None and outcome.startswith(prefix)
                    and outcome != prefix):
                raise ValueError(f"{outcome!r} is not an outcome of a {kind}")
            code = self._code_of[row] = len(self.shapes)
            self.shapes.append(row)
        return code

    def __len__(self) -> int:
        return len(self.codes)

    def __getitem__(self, index: int) -> Record:
        kind, source, destination, phase, size, outcome = self.shapes[self.codes[index]]
        return Record(self.times[index], kind, source, destination,
                      self.session_ids[self.sessions[index]], phase, size, outcome)


def csv_lines(log: EventLog, start: int = 0) -> Iterator[str]:
    """The log's records from ``start`` on, all by default, as CSV lines
    each ending in a newline, after the header when they start at record 0;
    a record's sequence is its log index, and an absent phase or size is
    empty. The fields around the session id are formatted once per shape,
    and a time once per run of records that share it. The columns are read
    through views from ``start``, so no record before it is visited, and the
    log may not grow until the lines have been read."""
    if start == 0:
        yield ",".join(LOG_HEADER) + "\n"
    heads = [f"{kind},{source},{destination}," for kind, source, destination, *_ in log.shapes]
    tails = [f",{'' if phase is None else phase},{'' if size is None else size},{outcome}\n"
             for *_, phase, size, outcome in log.shapes]
    ids = log.session_ids
    columns = (memoryview(column)[start:] for column in (log.times, log.sessions, log.codes))
    last, stamp = None, ""
    for sequence, time_s, session, code in zip(range(start, len(log)), *columns):
        if time_s != last or not time_s:  # 0.0 == -0.0, but each prints its own sign
            last, stamp = time_s, f"{time_s:.9f}"
        yield f"{stamp},{sequence},{heads[code]}{ids[session]}{tails[code]}"


def read_event_log(path) -> EventLog:
    """The log that ``csv_lines`` wrote to a file, read back: ``csv_lines`` of
    the result gives the file's text again, since each time is read as
    printed, to 1 ns, and a printed time reads back as a float that prints
    the same. A line that is not a record in log order (its sequence its
    index, its time none before 0 or the last), of a shape no run logs
    (``EventLog.shape``: a kind, ends and phase not in ``_RULES``, or a size
    or an outcome its rule does not give) or of an id no run gives it (an
    app start names no session, any other record 32 lowercase hex digits),
    or a file that cannot be read, raises ScenarioParseError naming the
    file and the line."""
    log = EventLog()
    index_of = {"": 0}  # session id -> its index in the log read so far
    header = ",".join(LOG_HEADER) + "\n"
    lineno, last = 1, 0.0  # a run logs no time before 0
    try:
        with open(path, newline="") as lines:
            if next(lines, "") != header:
                raise ValueError(f"expected the header {header.strip()}")
            for lineno, line in enumerate(lines, start=2):
                fields = line.split(",")
                if len(fields) != len(LOG_HEADER) or not line.endswith("\n"):
                    raise ValueError(f"expected {len(LOG_HEADER)} fields ending the line")
                (stamp, sequence, kind, source, destination, session_id, phase, size,
                 outcome) = fields
                time_s = float(stamp)
                if int(sequence) != len(log) or not (math.isfinite(time_s) and time_s >= last):
                    raise ValueError("not the next record in time order")
                last = time_s
                at = index_of.get(session_id)
                if at is None:
                    if not re.fullmatch("[0-9a-f]{32}", session_id):  # 16 drawn bytes
                        raise ValueError(f"{session_id!r} is not a session id")
                    at = index_of[session_id] = log.add_session(session_id)
                if (at == 0) is not (kind == "app-start"):  # only an app start has no session
                    raise ValueError(f"the {kind} names {'no' if at == 0 else 'a'} session")
                code = log.shape(kind, source, destination, int(phase) if phase else None,
                                 int(size) if size else None, outcome[:-1])
                log.times.append(time_s)
                log.sessions.append(at)
                log.codes.append(code)
    except (OSError, UnicodeDecodeError) as exc:
        detail = exc.strerror if isinstance(exc, OSError) else exc
        raise ScenarioParseError(f"{path}: cannot read: {detail}") from exc
    except ValueError as exc:
        raise ScenarioParseError(f"{path}: line {lineno}: {exc}") from exc
    return log


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
    """Vault with the resource clouds' bi realms plus the requesters' home realm.

    Each principal fronts for one tenant of CloudC; the tenants'
    credentials are returned for handing to role A at session start.
    """
    vault = Vault()
    for cloud, subdomain in (*((cloud.value, "bi") for cloud, _, _ in proto.RESOURCE_CLOUDS),
                             ("CloudC", "analysts")):
        secret = hashlib.sha256(b"crossrealm-master|" + cloud.encode()).digest()
        vault.register_cloud(cloud, secret)
        vault.register_subdomain(cloud, subdomain)
    requesters = {}
    for p in range(principals):
        tenant_id = f"user-{p:04d}"
        idr, ids, _private = vault.register_tenant(
            "CloudC", "analysts", tenant_id,
            primary_details={"plan": "standard"},
            extension_metadata={cls: f"{cls}-of-{tenant_id}" for cls in _METADATA_CLASSES},
        )
        requesters[tenant_id] = Requester(tenant_id, idr, ids)
    return vault, requesters


# -- the engine ----------------------------------------------------------------------

@dataclass
class SimRun:
    """The scenario a run was made from and everything it produced: the log,
    the final states, and whether the horizon cut the run off, the one fact
    of the run that no record holds. Every other figure of the report, the
    largest network delay too, is folded from the log and the scenario.

    ``sessions`` holds every session's final state. ``role_states`` holds
    only the slots of the sessions still in flight when the run stopped: a
    session's slots are let go at every role when it ends."""

    records: EventLog
    sessions: dict[bytes, SessionState]
    role_states: dict[Role, proto.RoleState]
    scenario: "Scenario"
    horizon_exceeded: bool


# the session counts a principal draws one of, each as likely, when its
# scenario's ``sessions_per_principal`` is "mean2"
MEAN2_SESSIONS = (1, 2, 3)


class _Engine:
    def __init__(self, scenario: "Scenario"):
        self.scenario = scenario
        self.rng = random.Random(scenario.seed)
        mode = scenario.timeout_mode
        # the seconds of each timer the mode arms, None for one it does not
        self.phase_limit = mode.seconds if mode.kind == "per-phase" else None
        self.watchdog_limit = mode.seconds if mode.kind == "localized-f" else None
        self.vault, self.requesters = build_default_vault(scenario.principals)
        self.roles = proto.initial_role_states(scenario.resources)
        # (responder, phase) -> the extra seconds it sits on its response
        self.stalls = {(s.role, s.phase_index): s.extra_delay_s for s in scenario.stalls}
        self.events = events = EventLog()
        # each record appends one entry to each of the log's three columns
        self._log_time = events.times.append
        self._log_session = events.sessions.append
        self._log_code = events.codes.append
        self.sessions: dict[bytes, SessionState] = {}
        # The event calendar. An event is a tuple (time, seq, *facts), and
        # each queue holds its events in (time, seq) order, since a leg's
        # messages share one delay and a run's timers (per-phase, or F's
        # watchdog, never both) one limit. The heap holds (time, seq, queue,
        # handler) for the head of each non-empty queue, and no more; every
        # event enters through ``schedule`` and leaves through ``loop``.
        self.timers: deque = deque()
        self.heap: list = []
        self.event_seq = itertools.count()
        self.horizon_exceeded = False
        # phase 1's begin, which each session start calls: made by ``setup``
        # and let go when the run ends
        self.begin: Callable[[SessionState, float, int], None] | None = None

    # -- scheduling ------------------------------------------------------

    def schedule(self, queue: deque, handler, event: tuple) -> None:
        """Queue an event (time, seq, *facts) for handler(event) at its time;
        ties run in scheduling order. An event earlier than the last in its
        queue would run out of order, so it raises: the engine is at fault."""
        if not queue:
            heapq.heappush(self.heap, (event[0], event[1], queue, handler))
        elif event[0] < queue[-1][0]:
            raise RuntimeError(f"event at {event[0]!r} s queued behind one at "
                               f"{queue[-1][0]!r} s: its queue would run out of time order")
        queue.append(event)

    def log_row(self, kind: str, now: float, source: str = "", at: int = 0,
                phase_index: int | None = None, outcome: str = "ok") -> None:
        """Log a record of no message (no destination, no size) given by its facts,
        at ``now``; ``at`` is its session's log index, 0 for none."""
        self._log_time(now)
        self._log_session(at)
        self._log_code(self.events.shape(kind, source, "", phase_index, None, outcome))

    def setup(self) -> None:
        sc = self.scenario
        seq = self.event_seq
        # every role's slot table, which a session's end empties of it
        self.slot_tables = tuple(state.sessions for state in self.roles.values())
        begin = None
        for spec in reversed(PHASES):
            begin = self._wire_phase(spec, begin)
        self.begin = begin
        app_starts, session_starts = [], []
        lo, hi = sc.app_start_offset_s
        for requester in self.requesters.values():  # one per principal, in order
            profile_start = sc.network_start_offset_s + self.rng.uniform(lo, hi)
            app_starts.append((profile_start, next(seq)))
            count = sc.sessions_per_principal
            if count == "mean2":
                count = self.rng.choice(MEAN2_SESSIONS)
            for _ in range(count):
                start = profile_start + self.rng.uniform(0.0, sc.session_spread_s)
                sid = self.rng.getrandbits(128).to_bytes(16, "big")
                at = self.events.add_session(sid.hex())
                session_starts.append((start, next(seq), sid, requester, at))
        for drawn, handler in ((app_starts, self._on_app_start),
                               (session_starts, self._on_session_start)):
            queue = deque()
            for event in sorted(drawn):  # by (time, seq): each seq is unique
                self.schedule(queue, handler, event)

    def _wire_phase(self, spec, begin_next) -> Callable:
        """Make one phase's two legs and three handlers and return its
        ``begin``; given the next phase's ``begin``, so the phases are wired
        from the last back.

        Every message on one leg takes the same path with the same size, the
        scenario's, so each leg is timed once, here: a request is delivered
        its network time plus the service time after its send, a response
        its network time plus the responder's stall. A stall of inf
        suppresses the response, and the phase has no reply leg.

        - ``begin(session, now, at)`` starts the phase at its initiator: it
          logs the request's send and queues its delivery and the phase timer.
        - ``on_request(event)`` delivers the request at the responder, which
          answers on the reply leg unless a stall of inf suppresses it.
        - ``on_response(event)`` delivers the reply; its arrival completes the
          phase, arms F's watchdog after phase 4 and begins the next phase.

        A delivery event is (time, seq, msg, the session's log index). Each
        handler holds the role states, shape codes, queues and delays it uses,
        so a message looks nothing up on the engine. A message on a phase's
        leg is always that phase's, so its role is the leg's end. The
        transitions are called through the protocol module, where a profiler
        may wrap them.
        """
        sessions, vault, schedule, seq = self.sessions, self.vault, self.schedule, self.event_seq
        log_time, log_session, log_code = self._log_time, self._log_session, self._log_code
        end, events, sc = self._end, self.events, self.scenario
        model, topo = sc.connection, sc.topology
        initiator, responder = self.roles[spec.source], self.roles[spec.destination]
        initiator_slots, responder_slots = initiator.sessions, responder.sessions
        index, source, destination = spec.index, spec.source.value, spec.destination.value
        phase_limit, timers, on_timer = self.phase_limit, self.timers, self._on_timer
        watchdog_limit = self.watchdog_limit if index == 4 else None
        # each leg: its delivery offset, its send record's shape code, its
        # deliver record's code by outcome and its queue of deliveries
        size = sc.phase_request_bytes[index]
        offset = transmit_components(size, source, destination, model, topo) + model.per_phase_service_s
        send = events.shape("send", source, destination, index, size, "ok")
        delivered, queue = _DeliverCodes(events, source, destination, index, size), deque()
        stall = self.stalls.get((spec.destination, index), 0.0)
        answered = stall != math.inf
        if answered:
            size = sc.phase_response_bytes[index]
            reply_offset = transmit_components(size, destination, source, model, topo)
            reply_send = events.shape("send", destination, source, index, size, "ok")
            replied, reply_queue = _DeliverCodes(events, destination, source, index, size), deque()

        def begin(session: SessionState, now: float, at: int) -> None:
            slot, request, drop_reason = proto.begin_phase(initiator, spec, session, vault)
            if drop_reason is not None:
                end(set_dropped(session, (_DROPPED, drop_reason)), now, at)
                return
            sid = session.session_id
            initiator_slots[sid] = slot
            log_time(now)
            log_session(at)
            log_code(send)
            schedule(queue, on_request, (now + offset, next(seq), request, at))
            if phase_limit is not None:
                schedule(timers, on_timer, (now + phase_limit, next(seq), sid, index, at))

        def on_request(event: tuple) -> None:
            now, _, msg, at = event
            sid = msg.session_id
            if sessions[sid].status is not _IN_PROGRESS:
                slot, outcome = None, ABSORBED  # nothing may alter a finished session
            else:
                slot, answer, outcome = proto.handle_message(responder, msg, vault)
            log_time(now)
            log_session(at)
            log_code(delivered[outcome])
            if slot is None:  # discarded
                return
            responder_slots[sid] = slot
            if answered:  # a request that is not discarded is answered
                log_time(now)
                log_session(at)
                log_code(reply_send)
                schedule(reply_queue, on_response,
                         (now + reply_offset + stall, next(seq), answer, at))

        def on_response(event: tuple) -> None:
            now, _, msg, at = event
            sid = msg.session_id
            session = sessions[sid]
            if session.status is not _IN_PROGRESS:
                slot, outcome = None, ABSORBED
            else:
                slot, _, outcome = proto.handle_message(initiator, msg, vault)
            log_time(now)
            log_session(at)
            log_code(replied[outcome])
            if slot is None:
                return
            initiator_slots[sid] = slot  # a response that is not discarded completes its phase
            session = proto.advance_phase(session)
            if session.status is _COMPLETED:
                end(session, now, at, source)
                return
            sessions[sid] = session
            if watchdog_limit is not None:
                schedule(timers, on_timer, (now + watchdog_limit, next(seq), sid, None, at))
            begin_next(session, now, at)

        return begin

    def loop(self, until: float = math.inf) -> None:
        """Run the events due by ``until`` or the horizon, whichever is first;
        an event due past the horizon sets ``horizon_exceeded``."""
        horizon = self.scenario.horizon_s
        stop = min(until, horizon)
        heap, heappop, heapreplace = self.heap, heapq.heappop, heapq.heapreplace
        while heap:
            time, _, queue, handler = heap[0]
            if time > stop:
                if time > horizon:
                    self.horizon_exceeded = True
                break
            event = queue.popleft()
            if queue:
                head = queue[0]
                heapreplace(heap, (head[0], head[1], queue, handler))
            else:
                heappop(heap)
            handler(event)

    # -- event handlers -----------------------------------------------------
    # each takes its time, and its session's log index, from its event

    def _on_app_start(self, event: tuple) -> None:
        self.log_row("app-start", event[0], "A")

    def _on_session_start(self, event: tuple) -> None:
        now, _, session_id, requester, at = event
        # built by position: the fields in order, each default spelled out
        session = _new(SessionState, (session_id, requester, self.scenario.resources, 0,
                                      _IN_PROGRESS, None, now, None))
        self.sessions[session_id] = session
        self.log_row("session-start", now, "A", at)
        self.begin(session, now, at)

    def _on_timer(self, event: tuple) -> None:
        """A phase's timer, or F's watchdog at phase None: expired if it drops the session."""
        now, _, session_id, phase_index, at = event
        session = self.sessions[session_id]
        if phase_index is None:
            role, after = _F, proto.localized_timeout_at_f(self.roles[_F], session)
        else:
            role, after = PHASES[phase_index - 1].source, proto.on_timeout(session, phase_index)
        expired = after is not session
        self.log_row("timer-fire", now, role.value, at, phase_index,
                     "expired" if expired else "ignored")
        if expired:
            self._end(after, now, at)

    # -- helpers -----------------------------------------------------------

    def _end(self, session: SessionState, now: float, at: int, source: str = "") -> None:
        """Stamp a finished session's end, store it, let go of its slot at
        every role and log its one end record."""
        session = set_ended(session, (now,))
        sid = session.session_id
        self.sessions[sid] = session
        for table in self.slot_tables:
            table.pop(sid, None)
        completed = session.status is _COMPLETED
        self.log_row("session-complete" if completed else "session-drop", now, source, at,
                     session.current_phase,
                     "completed" if completed else f"dropped:{session.drop_reason}")

    def result(self) -> SimRun:
        return SimRun(
            records=self.events,
            sessions=self.sessions,
            role_states=self.roles,
            scenario=self.scenario,
            horizon_exceeded=self.horizon_exceeded,
        )


# the equal slices of its horizon that a run loops over, handing the log to
# its writer, if it has one, after each
WRITER_SLICES = 16


def run(scenario: "Scenario", writer: Callable[[EventLog], None] | None = None) -> SimRun:
    """Run one scenario to completion or horizon; pure in the scenario.

    The loop runs in ``WRITER_SLICES`` equal slices of the horizon. Given a
    writer, the log is handed to ``writer(log)`` after each slice, so the
    writer can format what is logged while the run goes on; the run is the
    same with or without one.

    Cyclic garbage collection is paused while the event loop runs: the
    loop leaves no cyclic garbage, and every full collection would walk
    the whole event log for nothing. The engine and its phase handlers
    refer to each other, and a heap entry to a handler, only while the run
    goes on: when the loop stops, at the horizon too, the calendar is
    emptied and the handlers are let go. The caller's setting is restored
    on the way out, also when a handler raises.

    The objects the loop made are still counted as young when it ends, so
    the first allocation after the collector is enabled again would scan
    them all, again for nothing. Before that, every tracked object is
    moved to the oldest generation (``gc.freeze`` then ``gc.unfreeze``,
    which costs no scan): the caller's young objects are promoted with the
    run's. A caller that keeps objects frozen keeps them frozen: then the
    handoff is skipped.
    """
    engine = _Engine(scenario)
    engine.setup()
    collecting = gc.isenabled()
    gc.disable()
    try:
        for k in range(1, WRITER_SLICES + 1):
            engine.loop(scenario.horizon_s * k / WRITER_SLICES)
            if writer is not None:
                writer(engine.events)
    finally:
        for _, _, queue, _ in engine.heap:  # each non-empty queue has its head here
            queue.clear()
        engine.heap.clear()
        engine.begin = None
        if gc.get_freeze_count() == 0:
            gc.freeze()
            gc.unfreeze()
        if collecting:
            gc.enable()
    return engine.result()
