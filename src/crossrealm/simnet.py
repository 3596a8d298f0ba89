"""Deterministic discrete-event simulator of the authentication network.

The topology is the two-switch star of the modelling environment: the
principal population A reaches the inter-cloud core through SW1, and SW2
fans out to the front-end, the session authority with its credential
database and session handler, and the two resource clouds. Links are
aggregated (n parallel gigabit links become one link of n-fold
bandwidth) and routing is static shortest-path; nodes may only exchange
traffic along the allowed destination-preference pairs.

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

import hashlib
import heapq
import random
from dataclasses import dataclass, field, replace
from typing import TYPE_CHECKING, Iterable, Mapping

from . import protocol as proto
from .errors import DisallowedPair, InvalidInput
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

@dataclass(frozen=True)
class Link:
    a: str
    b: str
    bandwidth_bps: float
    count: int
    propagation_s: float


@dataclass(frozen=True)
class Topology:
    """Nodes, aggregated links, static routes, and allowed traffic pairs."""

    nodes: frozenset[str]
    links: tuple[Link, ...]
    allowed_pairs: frozenset[frozenset[str]]
    _paths: Mapping[tuple[str, str], tuple[Link, ...]] = field(repr=False, default=None)

    def allowed(self, a: str, b: str) -> bool:
        return a == b or frozenset((a, b)) in self.allowed_pairs

    def path(self, a: str, b: str) -> tuple[Link, ...]:
        return self._paths[(a, b)]

    def path_propagation_s(self, a: str, b: str) -> float:
        return sum(link.propagation_s for link in self.path(a, b))

    def path_bandwidth_bps(self, a: str, b: str) -> float:
        """Bottleneck bandwidth: aggregated links count as one fat link."""
        return min(link.bandwidth_bps * link.count for link in self.path(a, b))


def _all_pairs_paths(nodes: Iterable[str], links: tuple[Link, ...]):
    adjacency: dict[str, list[tuple[str, Link]]] = {n: [] for n in nodes}
    for link in links:
        adjacency[link.a].append((link.b, link))
        adjacency[link.b].append((link.a, link))
    for neighbours in adjacency.values():
        neighbours.sort(key=lambda item: item[0])
    paths = {}
    for start in sorted(adjacency):
        frontier = [start]
        seen = {start: ()}
        while frontier:
            nxt = []
            for node in frontier:
                for other, link in adjacency[node]:
                    if other not in seen:
                        seen[other] = seen[node] + (link,)
                        nxt.append(other)
            frontier = nxt
        for end, path in seen.items():
            paths[(start, end)] = path
    return paths


# (a, b, link count) for the default wiring; every link is 1 Gbps.
_DEFAULT_WIRING = (
    ("A", "SW1", 8),
    ("SW1", "SW2", 8),
    ("SW2", "F", 8),
    ("SW2", "SAC", 4),
    ("SW2", "SAC-DB", 4),
    ("SW2", "SAC-SH", 4),
    ("SW2", "CloudA", 4),
    ("SW2", "CloudB", 4),
)

# Destination preferences: who may exchange protocol traffic with whom,
# which is exactly the two ends of each phase of the protocol.
_ALLOWED_PAIRS = frozenset(
    frozenset((spec.source.value, spec.destination.value)) for spec in proto.protocol_table())

GIGABIT = 1e9


def build_default_topology(propagation_delay_s: float = 0.0005,
                           link_counts: Mapping[tuple[str, str], int] | None = None,
                           ) -> Topology:
    """The default nine-node topology with aggregated gigabit links."""
    overrides = {frozenset(k): v for k, v in (link_counts or {}).items()}
    links = tuple(
        Link(a, b, GIGABIT, overrides.get(frozenset((a, b)), count), propagation_delay_s)
        for a, b, count in _DEFAULT_WIRING
    )
    nodes = frozenset(n for link in links for n in (link.a, link.b))
    paths = _all_pairs_paths(nodes, links)
    return Topology(nodes=nodes, links=links, allowed_pairs=_ALLOWED_PAIRS, _paths=paths)


# -- connection model ----------------------------------------------------------

@dataclass(frozen=True)
class ConnectionModel:
    """Handshake-plus-transfer timing parameters."""

    handshake_rtts: float = 1.5
    per_phase_service_s: float = 4.55
    rtt_base_s: float = 0.001

    def __post_init__(self):
        for name in ("handshake_rtts", "per_phase_service_s", "rtt_base_s"):
            if getattr(self, name) < 0:
                raise InvalidInput(f"{name} must be non-negative")


def transmit_components(msg: ProtocolMessage, source: str, destination: str,
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
    serialization = msg.payload_bytes * 8.0 / topo.path_bandwidth_bps(source, destination)
    network = model.handshake_rtts * rtt + serialization + propagation
    service = model.per_phase_service_s if service_s is None else service_s
    return network, network + service


# -- stalls ---------------------------------------------------------------------

@dataclass(frozen=True)
class Stall:
    """A role sits on its response at one phase; inf suppresses it entirely."""

    role: Role
    phase_index: int
    extra_delay_s: float


def inject_stall(scenario: "Scenario", role: Role, phase_index: int,
                 extra_delay_s: float) -> "Scenario":
    """A copy of the scenario with one more injected response stall."""
    if not 1 <= phase_index <= proto.PHASE_COUNT:
        raise InvalidInput(f"phase_index must be 1..{proto.PHASE_COUNT}")
    stall = Stall(role=role, phase_index=phase_index, extra_delay_s=extra_delay_s)
    return replace(scenario, stalls=scenario.stalls + (stall,))


# -- event log -------------------------------------------------------------------

LOG_HEADER = ("time_s", "sequence", "kind", "source", "destination",
              "session_id", "phase_index", "payload_bytes", "outcome")


@dataclass(frozen=True)
class Record:
    """One event-log line."""

    time_s: float
    sequence: int
    kind: str
    source: str
    destination: str
    session_id: str
    phase_index: int | None
    payload_bytes: int | None
    outcome: str

    def to_row(self) -> tuple[str, ...]:
        return (
            f"{self.time_s:.9f}",
            str(self.sequence),
            self.kind,
            self.source,
            self.destination,
            self.session_id,
            "" if self.phase_index is None else str(self.phase_index),
            "" if self.payload_bytes is None else str(self.payload_bytes),
            self.outcome,
        )


def records_to_csv(records: Iterable[Record]) -> str:
    lines = [",".join(LOG_HEADER)]
    lines.extend(",".join(r.to_row()) for r in records)
    return "\n".join(lines) + "\n"


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
class SimEvent:
    """One scheduled occurrence; processed in (time, sequence) order."""

    kind: str  # "app-start" | "session-start" | "deliver" | "phase-timer" | "f-watchdog"
    target: str
    msg: ProtocolMessage | None = None
    session_id: bytes | None = None
    phase_index: int | None = None
    principal: int | None = None


@dataclass
class SimRun:
    """Everything a run produced: the log, final states, and flags."""

    records: list[Record]
    sessions: dict[bytes, SessionState]
    role_states: dict[Role, proto.RoleState]
    vault: Vault
    seed: int
    horizon_s: float
    max_network_delay_s: float
    horizon_exceeded: bool

    def completed(self) -> list[SessionState]:
        return [s for s in self.sessions.values() if s.status is SessionStatus.COMPLETED]

    def dropped(self) -> list[SessionState]:
        return [s for s in self.sessions.values() if s.status is SessionStatus.DROPPED]


class _Engine:
    def __init__(self, scenario: "Scenario", seed: int):
        self.scenario = scenario
        self.seed = seed
        self.rng = random.Random(seed)
        self.mode = scenario.timeout_mode
        self.table = proto.protocol_table(scenario.phase_request_bytes,
                                          scenario.phase_response_bytes)
        self.topology = build_default_topology(scenario.propagation_delay_s,
                                               scenario.link_counts)
        self.model = scenario.connection
        self.vault, self.requesters = build_default_vault(scenario.principals)
        self.roles = proto.initial_role_states(
            {scenario.resources[0]: Role.CLOUD_A, scenario.resources[1]: Role.CLOUD_B})
        self.stalls = {(s.role, s.phase_index): s.extra_delay_s for s in scenario.stalls}
        self.sessions: dict[bytes, SessionState] = {}
        self.heap: list = []
        self.records: list[Record] = []
        self.now = 0.0
        self.event_seq = 0
        self.record_seq = 0
        self.max_network_delay = 0.0
        self.horizon_exceeded = False

    # -- scheduling ------------------------------------------------------

    def schedule(self, time: float, event: SimEvent) -> None:
        heapq.heappush(self.heap, (time, self.event_seq, event))
        self.event_seq += 1

    def log(self, kind: str, source: str = "", destination: str = "",
            session_id: bytes | None = None, phase_index: int | None = None,
            payload_bytes: int | None = None, outcome: str = "ok") -> None:
        self.records.append(Record(
            time_s=self.now, sequence=self.record_seq, kind=kind, source=source,
            destination=destination,
            session_id=session_id.hex() if session_id else "",
            phase_index=phase_index, payload_bytes=payload_bytes, outcome=outcome))
        self.record_seq += 1

    def setup(self) -> None:
        sc = self.scenario
        lo, hi = sc.app_start_offset_s
        for p in range(sc.principals):
            profile_start = sc.network_start_offset_s + self.rng.uniform(lo, hi)
            self.schedule(profile_start, SimEvent(kind="app-start", target="A", principal=p))
            if sc.sessions_per_principal == "mean2":
                count = self.rng.choice((1, 2, 3))
            else:
                count = int(sc.sessions_per_principal)
            for _ in range(count):
                start = profile_start + self.rng.uniform(0.0, sc.session_spread_s)
                sid = self.rng.getrandbits(128).to_bytes(16, "big")
                self.schedule(start, SimEvent(kind="session-start", target="A",
                                            session_id=sid, principal=p))

    def loop(self) -> None:
        horizon = self.scenario.horizon_s
        while self.heap:
            time, _, event = heapq.heappop(self.heap)
            if time > horizon:
                self.horizon_exceeded = True
                break
            self.now = time
            getattr(self, "_on_" + event.kind.replace("-", "_"))(event)

    # -- event handlers -----------------------------------------------------

    def _on_app_start(self, event: SimEvent) -> None:
        self.log("app-start", source=event.target)

    def _on_session_start(self, event: SimEvent) -> None:
        tenant_id = f"user-{event.principal:04d}"
        session = SessionState(
            session_id=event.session_id,
            requester=self.requesters[tenant_id],
            principal=f"principal-{event.principal:04d}",
            resources=self.scenario.resources,
            started_at=self.now,
        )
        self.sessions[event.session_id] = session
        self.log("session-start", source="A", session_id=event.session_id)
        self._begin_phase(1, session)

    def _on_deliver(self, event: SimEvent) -> None:
        msg = event.msg
        session = self.sessions.get(msg.session_id)
        if session is not None and session.status is not SessionStatus.IN_PROGRESS:
            # Drop absorption: nothing may alter a finished session.
            self.log("deliver", msg.source.value, msg.destination.value,
                     msg.session_id, msg.phase_index, msg.payload_bytes,
                     outcome="discarded:session-not-in-progress")
            return
        role = msg.destination
        result = proto.handle_message(self.roles[role], msg, self.vault, self.table)
        self.roles[role] = result.state
        self.log("deliver", msg.source.value, msg.destination.value,
                 msg.session_id, msg.phase_index, msg.payload_bytes,
                 outcome=result.outcome)
        if result.discarded:
            return
        for out in result.outgoing:
            self._send(out)
        if result.outcome == "phase-complete":
            self._complete_phase(session, msg)

    def _on_phase_timer(self, event: SimEvent) -> None:
        # armed at phase start + limit: a phase still open now has expired
        session = self.sessions[event.session_id]
        still_open = session.current_phase < event.phase_index
        self._timer_fired(event, session,
                          proto.on_timeout(session, event.phase_index) if still_open else session)

    def _on_f_watchdog(self, event: SimEvent) -> None:
        session = self.sessions[event.session_id]
        # F's slot holds a key set only once phase 12 delivered the grant
        granted = self.roles[Role.F].sessions[event.session_id].keyset is not None
        self._timer_fired(event, session,
                          session if granted else proto.localized_timeout_at_f(session))

    def _timer_fired(self, event: SimEvent, before: SessionState, after: SessionState) -> None:
        """Log a timer; it expired if its transition returned a new session, else it is ignored."""
        expired = after is not before
        self.log("timer-fire", source=event.target, session_id=event.session_id,
                 phase_index=event.phase_index, outcome="expired" if expired else "ignored")
        if expired:
            self._drop(after)

    # -- helpers -----------------------------------------------------------

    def _begin_phase(self, index: int, session: SessionState) -> None:
        spec = self.table[index - 1]
        result = proto.begin_phase(self.roles[spec.source], spec, session, self.vault)
        self.roles[spec.source] = result.state
        if result.minted is not None:
            session = replace(session, idsess=result.minted)
            self.sessions[session.session_id] = session
        if result.drop_reason is not None:
            self._drop(replace(session, status=SessionStatus.DROPPED,
                               drop_reason=result.drop_reason))
            return
        if not result.outgoing:
            return
        for msg in result.outgoing:
            self._send(msg)
        if self.mode.kind == "per-phase":
            self.schedule(self.now + self.mode.seconds,
                          SimEvent(kind="phase-timer", target=spec.source.value,
                                 session_id=session.session_id, phase_index=index))

    def _send(self, msg: ProtocolMessage) -> None:
        extra = 0.0
        if msg.kind is MessageKind.RESPONSE:
            stall = self.stalls.get((msg.source, msg.phase_index))
            if stall is not None:
                if stall == float("inf"):
                    return  # response suppressed outright
                extra = stall
        service = None if msg.kind is MessageKind.REQUEST else 0.0
        network, offset = transmit_components(
            msg, msg.source.value, msg.destination.value, self.model,
            self.topology, service_s=service)
        if network > self.max_network_delay:
            self.max_network_delay = network
        self.log("send", msg.source.value, msg.destination.value,
                 msg.session_id, msg.phase_index, msg.payload_bytes)
        self.schedule(self.now + offset + extra,
                      SimEvent(kind="deliver", target=msg.destination.value, msg=msg))

    def _complete_phase(self, session: SessionState, final_response: ProtocolMessage) -> None:
        session = proto.advance_phase(session)
        self.sessions[session.session_id] = session
        if session.status is SessionStatus.COMPLETED:
            session = replace(session, ended_at=self.now)
            self.sessions[session.session_id] = session
            self.log("session-complete", source=final_response.destination.value,
                     session_id=session.session_id, phase_index=session.current_phase,
                     outcome="completed")
            return
        done = session.current_phase
        if done == 4 and self.mode.kind == "localized-f":
            self.schedule(self.now + self.mode.seconds,
                          SimEvent(kind="f-watchdog", target="F",
                                 session_id=session.session_id))
        self._begin_phase(done + 1, session)

    def _drop(self, session: SessionState) -> None:
        session = replace(session, ended_at=self.now)
        self.sessions[session.session_id] = session
        self.log("session-drop", session_id=session.session_id,
                 phase_index=session.current_phase,
                 outcome=f"dropped:{session.drop_reason}")

    def result(self) -> SimRun:
        return SimRun(
            records=self.records,
            sessions=self.sessions,
            role_states=self.roles,
            vault=self.vault,
            seed=self.seed,
            horizon_s=self.scenario.horizon_s,
            max_network_delay_s=self.max_network_delay,
            horizon_exceeded=self.horizon_exceeded,
        )


def run(scenario: "Scenario", seed: int | None = None) -> SimRun:
    """Run one scenario to completion or horizon; pure in (scenario, seed)."""
    engine = _Engine(scenario, scenario.seed if seed is None else seed)
    engine.setup()
    engine.loop()
    return engine.result()
