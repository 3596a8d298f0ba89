"""A reference engine: what a run of ``simnet.run`` does, written plainly.

It is the run's specification in test form. Where the engine keeps a
calendar of per-leg queues, wires each phase once as closures, logs by
shape codes and loops in slices, the reference has one ``heapq`` of
``(time, seq, handler, args)``, times each message when it is sent and
logs ``Record`` tuples. What it must share with the engine is what a run
is:

- the same random draws in the same order, from one generator seeded
  with the scenario's seed;
- the same sequence numbers, given in the same order, so that events due
  at one time run in the order they were scheduled;
- a request delivered at its send time plus its network time plus the
  service time, and a response at its send time plus its network time
  plus the stall of the role that answers it; a stall of inf suppresses
  the response, which is then never sent;
- the transitions, called through ``protocol``;
- the events due by the horizon run, and the run says whether any was
  due after it.

``reference_csv`` formats the records as ``events.csv`` does, one record
at a time.
"""

from __future__ import annotations

import heapq
import itertools
import math
import random
from typing import NamedTuple

from crossrealm import protocol
from crossrealm.protocol import PHASES, Role, SessionState, SessionStatus
from crossrealm.simnet import ABSORBED, Record, build_default_vault, transmit_components

LOG_HEADER = "time_s,sequence,kind,source,destination,session_id,phase_index,payload_bytes,outcome"


class ReferenceRun(NamedTuple):
    records: list[Record]
    sessions: dict[bytes, SessionState]
    horizon_exceeded: bool


def reference_csv(records: list[Record]) -> str:
    """The records as CSV text: a header, then one line a record, whose
    sequence is its index and whose absent phase or size is empty."""
    lines = [LOG_HEADER + "\n"]
    for sequence, record in enumerate(records):
        time_s, kind, source, destination, session_id, phase, size, outcome = record
        lines.append(f"{time_s:.9f},{sequence},{kind},{source},{destination},{session_id},"
                     f"{'' if phase is None else phase},{'' if size is None else size},{outcome}\n")
    return "".join(lines)


def reference_run(scenario) -> ReferenceRun:
    """Run the scenario to its end or its horizon."""
    return _Reference(scenario).run()


class _Reference:
    def __init__(self, scenario):
        self.scenario = scenario
        self.mode = scenario.timeout_mode
        self.vault, self.requesters = build_default_vault(scenario.principals)
        self.roles = protocol.initial_role_states(scenario.resources)
        self.stalls = {(stall.role, stall.phase_index): stall.extra_delay_s
                       for stall in scenario.stalls}
        self.records: list[Record] = []
        self.sessions: dict[bytes, SessionState] = {}
        self.heap: list = []
        self.seq = itertools.count()

    def at(self, time: float, handler, *args) -> None:
        heapq.heappush(self.heap, (time, next(self.seq), handler, args))

    def log(self, now: float, kind: str, source: str, destination: str = "",
            sid: bytes | None = None, phase: int | None = None, size: int | None = None,
            outcome: str = "ok") -> None:
        self.records.append(Record(now, kind, source, destination,
                                   "" if sid is None else sid.hex(), phase, size, outcome))

    def run(self) -> ReferenceRun:
        sc, rng = self.scenario, random.Random(self.scenario.seed)
        lo, hi = sc.app_start_offset_s
        for requester in self.requesters.values():  # one per principal, in order
            profile_start = sc.network_start_offset_s + rng.uniform(lo, hi)
            self.at(profile_start, self.app_start)
            count = sc.sessions_per_principal
            if count == "mean2":
                count = rng.choice((1, 2, 3))
            for _ in range(count):
                start = profile_start + rng.uniform(0.0, sc.session_spread_s)
                sid = rng.getrandbits(128).to_bytes(16, "big")
                self.at(start, self.session_start, sid, requester)
        exceeded = False
        while self.heap:
            time, _, handler, args = heapq.heappop(self.heap)
            if time > sc.horizon_s:
                exceeded = True
                break
            handler(time, *args)
        return ReferenceRun(self.records, self.sessions, exceeded)

    # -- the events ---------------------------------------------------------

    def app_start(self, now: float) -> None:
        self.log(now, "app-start", "A")

    def session_start(self, now: float, sid: bytes, requester) -> None:
        session = SessionState(session_id=sid, requester=requester,
                               resources=self.scenario.resources, started_at=now)
        self.sessions[sid] = session
        self.log(now, "session-start", "A", sid=sid)
        self.begin(PHASES[0], session, now)

    def begin(self, spec, session: SessionState, now: float) -> None:
        """The phase's initiator sends its request, and its timer is armed."""
        sc, sid = self.scenario, session.session_id
        result = protocol.begin_phase(self.roles[spec.source], spec, session, self.vault)
        if result.drop_reason is not None:
            self.end(session._replace(status=SessionStatus.DROPPED,
                                      drop_reason=result.drop_reason), now)
            return
        self.roles[spec.source].sessions[sid] = result.slot
        source, destination = spec.source.value, spec.destination.value
        size = sc.phase_request_bytes[spec.index]
        self.log(now, "send", source, destination, sid, spec.index, size)
        network = transmit_components(size, source, destination, sc.connection, sc.topology)
        self.at(now + (network + sc.connection.per_phase_service_s), self.request,
                spec, result.outgoing)
        if self.mode.kind == "per-phase":
            self.at(now + self.mode.seconds, self.phase_timer, sid, spec.index)

    def request(self, now: float, spec, msg) -> None:
        """The responder takes the request and answers it, unless it is
        discarded or its answer is suppressed."""
        sc, sid = self.scenario, msg.session_id
        source, destination = spec.source.value, spec.destination.value
        result = self.deliver(self.roles[spec.destination], msg)
        self.log(now, "deliver", source, destination, sid, spec.index,
                 sc.phase_request_bytes[spec.index], ABSORBED if result is None else result.outcome)
        if result is None or result.discarded:
            return
        self.roles[spec.destination].sessions[sid] = result.slot
        stall = self.stalls.get((spec.destination, spec.index), 0.0)
        if stall == math.inf:
            return
        size = sc.phase_response_bytes[spec.index]
        self.log(now, "send", destination, source, sid, spec.index, size)
        network = transmit_components(size, destination, source, sc.connection, sc.topology)
        self.at(now + network + stall, self.response, spec, result.outgoing)

    def response(self, now: float, spec, msg) -> None:
        """The initiator takes the response, which completes the phase: the
        watchdog is armed after phase 4, and the next phase begins."""
        sc, sid = self.scenario, msg.session_id
        result = self.deliver(self.roles[spec.source], msg)
        self.log(now, "deliver", spec.destination.value, spec.source.value, sid, spec.index,
                 sc.phase_response_bytes[spec.index],
                 ABSORBED if result is None else result.outcome)
        if result is None or result.discarded:
            return
        self.roles[spec.source].sessions[sid] = result.slot
        session = protocol.advance_phase(self.sessions[sid])
        if session.status is SessionStatus.COMPLETED:
            self.end(session, now, spec.source.value)
            return
        self.sessions[sid] = session
        if self.mode.kind == "localized-f" and spec.index == 4:
            self.at(now + self.mode.seconds, self.watchdog, sid)
        self.begin(PHASES[spec.index], session, now)

    def deliver(self, state, msg):
        """The role's transition on the message, or None for a message to a
        session that has ended, which no role sees."""
        if self.sessions[msg.session_id].status is not SessionStatus.IN_PROGRESS:
            return None
        return protocol.handle_message(state, msg, self.vault)

    def phase_timer(self, now: float, sid: bytes, index: int) -> None:
        session = self.sessions[sid]
        self.timer_fired(now, PHASES[index - 1].source.value, sid, index, session,
                         protocol.on_timeout(session, index))

    def watchdog(self, now: float, sid: bytes) -> None:
        session = self.sessions[sid]
        self.timer_fired(now, "F", sid, None, session,
                         protocol.localized_timeout_at_f(self.roles[Role.F], session))

    def timer_fired(self, now: float, role: str, sid: bytes, index: int | None,
                    before: SessionState, after: SessionState) -> None:
        """A timer expired if its transition returned another session."""
        expired = after is not before
        self.log(now, "timer-fire", role, "", sid, index, None,
                 "expired" if expired else "ignored")
        if expired:
            self.end(after, now)

    def end(self, session: SessionState, now: float, source: str = "") -> None:
        """The session ends: its end is stamped, every role lets go of its
        slot, and its one end record names the phases it completed."""
        session = session._replace(ended_at=now)
        sid = session.session_id
        self.sessions[sid] = session
        for state in self.roles.values():
            state.sessions.pop(sid, None)
        if session.status is SessionStatus.COMPLETED:
            self.log(now, "session-complete", source, "", sid, session.current_phase, None,
                     "completed")
        else:
            self.log(now, "session-drop", source, "", sid, session.current_phase, None,
                     f"dropped:{session.drop_reason}")
