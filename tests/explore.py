"""An exhaustive explorer of the role machines: every interleaving of a small case.

Two sessions, of ``user-0000`` and ``user-0001`` over
``build_default_vault(2)``, are driven through ``begin_phase`` and
``handle_message`` as the engine drives them: phase 1 begins at the
session's start, a phase's accepted response completes it and the next
phase begins at once at its source, a session that ends lets go of its
slot at every role, and a message for an ended session is absorbed
before any role sees it. The phases, their ends and their payload fields
are read from ``protocol.PHASES``.

A breadth-first search visits every state that these reach:

- the network delivers any message in flight, in any order;
- the open phase's timer, or F's watchdog once phase 4 is done, fires at
  any step;
- an adversary with K injections, who knows every message sent so far,
  delivers a copy of one again (``replay``), readdressed to another role
  or delivered there as it is (``misroute``), or with another role as its
  source (``spoof``); or replaces one payload field of a request in flight
  with the other session's value (``swap``: ``requester``, ``idr``,
  ``ids``, ``requester_key`` or ``keyset``; both sessions ask for the same
  resources, and every tenant of a sub-domain shares its IDr and IDs, so
  swapping those changes nothing) or with a value of no field's type
  (``ill-typed``: ``5``, ``None``, ``()``, a pair, or a triple of a
  realm no vault holds).

A state is each role's slot of each session, each session's progress,
the messages in flight, the injections left and, while any are left, what
the adversary knows. Transitions are pure, so each (role, slot, message)
is handled once and its result reused, and a discarded delivery leaves the
state as it was: only accepted injections branch.

Four invariants are checked at every step:

- ``raises``: no transition raises;
- ``unawaited``: a role takes only the message its session awaits, its
  open phase's request at the responder or response at the initiator,
  from the phase's other end;
- ``grants``: a cloud grants only the resource it hosts;
- ``keysets``: every key set a role holds is its session's, minted for
  exactly the session's requester.

Each state keeps its parent, so a failure prints the shortest sequence of
actions that reaches it. From the command line::

    PYTHONPATH=src python tests/explore.py --injections 1 --kinds all --xfail keysets

exits 1 unless every invariant holds except those named by ``--xfail``,
each of which must fail.
"""

from __future__ import annotations

import argparse
import sys
import time
from collections import deque
from typing import NamedTuple

from crossrealm import protocol as proto
from crossrealm import simnet
from crossrealm.keys import SessionKeySet, mint_session_keys
from crossrealm.protocol import (
    PHASES,
    MessageKind,
    ProtocolMessage,
    Role,
    RoleState,
    SessionState,
    SessionStatus,
)

VAULT, REQUESTERS = simnet.build_default_vault(2)
REALM = ("CloudC", "analysts")
ROLES = tuple(Role)
SESSIONS = tuple(SessionState(bytes([n + 1]) * 16, requester, proto.DEFAULT_RESOURCES)
                 for n, requester in enumerate(REQUESTERS.values()))
SESSION_AT = {session.session_id: at for at, session in enumerate(SESSIONS)}
HOSTING = {state.role: state.hosted_resources for state in proto.initial_role_states().values()}
CLOUDS = tuple(cloud for cloud, _, _ in proto.RESOURCE_CLOUDS)
# the phase whose completion arms F's watchdog, as the engine arms it: F's
# forward of the approval request to SAC
WATCHDOG_AFTER = next(spec.index for spec in PHASES
                      if (spec.source, spec.destination) == (Role.F, Role.SAC))

KINDS = ("replay", "misroute", "spoof", "swap", "ill-typed")
SWAPPED = ("requester", "idr", "ids", "requester_key", "keyset")
INVARIANTS = ("raises", "unawaited", "grants", "keysets")
_REQUEST, _RESPONSE = MessageKind.REQUEST, MessageKind.RESPONSE
_IN_PROGRESS, _DROPPED = SessionStatus.IN_PROGRESS, SessionStatus.DROPPED


def _keyset(session: SessionState) -> SessionKeySet:
    return mint_session_keys(session.session_id, [(session.requester.tenant_id, *REALM)], VAULT)


def _truth(session: SessionState) -> dict:
    """A session's own value of each field a swap may put in the other's request."""
    keyset = _keyset(session)
    requester = session.requester
    return {"requester": requester.tenant_id, "idr": requester.idr, "ids": requester.ids,
            "requester_key": keyset.keys[requester.tenant_id], "keyset": keyset}


TRUTHS = tuple(map(_truth, SESSIONS))


def ill_typed(tenant: str) -> tuple:
    """Values of no carried field's type: a number, nothing, an empty tuple,
    a pair and a (tenant, cloud, sub-domain) triple of a realm no vault
    holds; the pair and the triple name the session's own tenant."""
    return 5, None, (), (tenant, "CloudC"), (tenant, "CloudZ", "nowhere")


def _frozen(value):
    """A hashable form of a value: a key set's mapping as its items, a
    tuple's items each frozen, with its type."""
    if type(value) is SessionKeySet:
        return (SessionKeySet, value.session_id, tuple(value.keys.items()), value.generation)
    if isinstance(value, tuple):
        return (type(value), *map(_frozen, value))
    return value


def _progress(session: SessionState) -> tuple:
    """What a session's state holds besides its id's constant facts."""
    return session.session_id, session.current_phase, session.status.name, session.drop_reason


class _Numbers:
    """Each distinct value, by its key, as a small number, and back."""

    def __init__(self, key=_frozen):
        self.values: list = []
        self._by_value: dict = {}
        self._key = key

    def __call__(self, value) -> int:
        key = self._key(value)
        number = self._by_value.get(key)
        if number is None:
            number = self._by_value[key] = len(self.values)
            self.values.append(value)
        return number


class State(NamedTuple):
    slots: tuple[int, ...]  # role i's slot of session s at i * len(SESSIONS) + s
    sessions: tuple[int, ...]  # each session's progress
    awaits: tuple  # each session's kind of message its open phase awaits
    flight: tuple[int, ...]  # messages in flight, sorted
    left: int  # injections left
    known: frozenset  # every message sent, while an injection is left


class Failure(NamedTuple):
    invariant: str
    what: str
    path: list[str]


class Result(NamedTuple):
    states: int
    seconds: float
    failures: dict  # invariant -> its Failure on a shortest path
    ends: frozenset  # the (status, drop reason) of each way a session ended

    def report(self, invariant: str) -> str:
        failure = self.failures[invariant]
        steps = "".join(f"\n  {n}. {step}" for n, step in enumerate(failure.path, start=1))
        return f"{invariant}: {failure.what}, after {len(failure.path)} actions:{steps}"


def _describe(msg: ProtocolMessage) -> str:
    return (f"session {SESSION_AT[msg.session_id] + 1} phase {msg.phase_index} "
            f"{msg.kind.value} {msg.source.value}->{msg.destination.value}")


# A step is (what it does, the message it acts on or None), and is put in
# words only when a failure prints its path: what it does is a template
# that names the message as {}.
def _say(step: tuple) -> str:
    what, message = step
    return what if message is None else what.format(_describe(message))


_READDRESS = {role: f"readdress to {role.value}: {{}}" for role in Role}
_MISDELIVER = {role: f"deliver at {role.value} as it is: {{}}" for role in Role}
_SPOOF = {role: f"spoof {role.value} as the source: {{}}" for role in Role}


class _Explorer:
    def __init__(self, injections: int, kinds):
        self.kinds = frozenset(kinds)
        self.slots = _Numbers()
        self.messages = _Numbers()
        self.progress = _Numbers(_progress)
        self.checked: set = set()  # (role, slot) pairs the invariants hold of
        self.none = self.slots(None)
        self.handled: dict = {}  # (role, slot, message, source, destination) -> result
        self.begun: dict = {}  # (phase, slot, progress) -> result
        self.failures: dict[str, Failure] = {}
        self.parent: dict[State, tuple] = {}
        start = State((self.none,) * (len(ROLES) * len(SESSIONS)),
                      tuple(map(self.progress, SESSIONS)),
                      (None,) * len(SESSIONS), (), injections, frozenset())
        self.start = start
        self.step = None  # what the state being expanded does next
        self.origin = None

    # -- failures ------------------------------------------------------------

    def path(self, state: State | None, then: tuple | None) -> list[str]:
        steps = [] if then is None else [_say(then)]
        while state is not None:
            state, step = self.parent[state]
            steps.append(_say(step))
        return steps[::-1]

    def fail(self, invariant: str, what: str, state: State | None, step: tuple | None) -> None:
        if invariant not in self.failures:  # breadth first: the first is a shortest
            self.failures[invariant] = Failure(invariant, what, self.path(state, step))

    # -- the transitions, each called once per distinct input -----------------

    def handle(self, role: Role, slot: int, msg: int, source: Role, destination: Role):
        """handle_message at ``role`` of a copy of message ``msg`` from
        ``source`` to ``destination``: (slot, reply, outcome), or None if it
        raised."""
        key = (role, slot, msg, source, destination)
        if key in self.handled:
            return self.handled[key]
        message = self.messages.values[msg]
        if (source, destination) != (message.source, message.destination):
            message = message._replace(source=source, destination=destination)
        sessions = {} if slot == self.none else {message.session_id: self.slots.values[slot]}
        try:
            taken, reply, outcome = proto.handle_message(
                RoleState(role, HOSTING[role], sessions), message, VAULT)
        except Exception as exc:
            self.fail("raises", f"handle_message at {role.value} raised {exc!r}",
                      self.origin, self.step)
            result = None
        else:
            result = (None if taken is None else self.slots(taken),
                      None if reply is None else self.messages(reply), outcome)
        self.handled[key] = result
        return result

    def begin(self, spec, slot: int, progress: int):
        """begin_phase at the phase's source: (slot, request, drop reason), or None if it raised."""
        key = (spec.index, slot, progress)
        if key in self.begun:
            return self.begun[key]
        session = self.progress.values[progress]
        sessions = {} if slot == self.none else {session.session_id: self.slots.values[slot]}
        try:
            taken, request, dropped = proto.begin_phase(
                RoleState(spec.source, HOSTING[spec.source], sessions), spec, session, VAULT)
        except Exception as exc:
            self.fail("raises", f"begin_phase({spec.index}) raised {exc!r}", self.origin, self.step)
            result = None
        else:
            result = (None if taken is None else self.slots(taken),
                      None if request is None else self.messages(request), dropped)
        self.begun[key] = result
        return result

    # -- successors ------------------------------------------------------------

    def _start(self, slots: list, sessions: list, awaits: list, flight: list, sent: list,
               at: int) -> bool:
        """Begin the session's next phase, or end it: False if a transition raised."""
        session = self.progress.values[sessions[at]]
        if session.status is not _IN_PROGRESS:
            self._end(slots, awaits, at)
            return True
        spec = PHASES[session.current_phase]
        source = ROLES.index(spec.source) * len(SESSIONS) + at
        begun = self.begin(spec, slots[source], sessions[at])
        if begun is None:
            return False
        slot, request, dropped = begun
        if dropped is not None:
            sessions[at] = self.progress(proto.set_dropped(session, (_DROPPED, dropped)))
            self._end(slots, awaits, at)
            return True
        slots[source] = slot
        awaits[at] = _REQUEST
        flight.append(request)
        sent.append(request)
        return True

    def _end(self, slots: list, awaits: list, at: int) -> None:
        for i in range(at, len(slots), len(SESSIONS)):
            slots[i] = self.none
        awaits[at] = None

    def deliver(self, state: State, msg: int, role: Role, source: Role, destination: Role,
                flight: tuple, left: int):
        """The state after a copy of message ``msg``, from ``source`` to
        ``destination``, is delivered at ``role``, with ``flight`` in flight
        after it; None if it is absorbed, discarded or a transition raised."""
        message = self.messages.values[msg]
        at = SESSION_AT[message.session_id]
        session = self.progress.values[state.sessions[at]]
        if session.status is not _IN_PROGRESS:
            return None  # absorbed: no role sees it
        cell = ROLES.index(role) * len(SESSIONS) + at
        result = self.handle(role, state.slots[cell], msg, source, destination)
        if result is None or result[0] is None:
            return None
        slot, reply, _ = result
        spec = PHASES[session.current_phase]
        awaited = ((spec.source, spec.destination) if state.awaits[at] is _REQUEST
                   else (spec.destination, spec.source))
        if (message.phase_index, message.kind, source, role) != (spec.index, state.awaits[at],
                                                                 *awaited):
            self.fail("unawaited", f"{role.value} took {_describe(message)} from "
                      f"{source.value}", self.origin, self.step)
            return None
        slots, sessions, awaits = list(state.slots), list(state.sessions), list(state.awaits)
        flight, sent = list(flight), []
        slots[cell] = slot
        if message.kind is _REQUEST:
            awaits[at] = _RESPONSE
            flight.append(reply)
            sent.append(reply)
        else:
            sessions[at] = self.progress(proto.advance_phase(session))
            if not self._start(slots, sessions, awaits, flight, sent, at):
                return None
        return self._state(state, slots, sessions, awaits, flight, sent, left)

    def _state(self, state: State, slots, sessions, awaits, flight, sent, left: int) -> State:
        known = frozenset() if left == 0 else state.known.union(sent)
        return State(tuple(slots), tuple(sessions), tuple(awaits), tuple(sorted(flight)), left,
                     known)

    def fire(self, state: State, at: int, after: SessionState) -> State | None:
        """The state after a timer of session ``at``; None if it is ignored."""
        if after is self.progress.values[state.sessions[at]]:
            return None
        slots, sessions, awaits = list(state.slots), list(state.sessions), list(state.awaits)
        sessions[at] = self.progress(after)
        self._end(slots, awaits, at)
        return self._state(state, slots, sessions, awaits, state.flight, [], state.left)

    def successors(self, state: State):
        """Each (step, state) one action leads to."""
        flight = state.flight
        for i, msg in enumerate(flight):
            if i and flight[i - 1] == msg:
                continue  # the same message twice in flight: one delivery is enough
            message = self.messages.values[msg]
            self.step = ("deliver {}", message)
            after = self.deliver(state, msg, message.destination, message.source,
                                 message.destination, flight[:i] + flight[i + 1:], state.left)
            if after is not None:
                yield self.step, after
        for at, number in enumerate(state.sessions):
            session = self.progress.values[number]
            if session.status is not _IN_PROGRESS:
                continue
            open_phase = session.current_phase + 1
            self.step = (f"phase {open_phase}'s timer fires for session {at + 1}", None)
            after = self.fire(state, at, proto.on_timeout(session, open_phase))
            if after is not None:
                yield self.step, after
            if session.current_phase >= WATCHDOG_AFTER:
                f = ROLES.index(Role.F) * len(SESSIONS) + at
                slot = state.slots[f]
                sessions = {} if slot == self.none else {session.session_id:
                                                         self.slots.values[slot]}
                self.step = (f"F's watchdog fires for session {at + 1}", None)
                after = self.fire(state, at, proto.localized_timeout_at_f(
                    RoleState(Role.F, HOSTING[Role.F], sessions), session))
                if after is not None:
                    yield self.step, after
        if state.left:
            yield from self.injections(state)

    def injections(self, state: State):
        left, kinds = state.left - 1, self.kinds
        for msg in sorted(state.known):
            message = self.messages.values[msg]
            copies = []
            if "replay" in kinds:
                copies.append(("replay {}", message.destination, message.source,
                               message.destination))
            for role in ROLES:
                if "misroute" in kinds and role is not message.destination:
                    copies.append((_READDRESS[role], role, message.source, role))
                    copies.append((_MISDELIVER[role], role, message.source, message.destination))
                if "spoof" in kinds and role is not message.source:
                    copies.append((_SPOOF[role], message.destination, role, message.destination))
            for how, role, source, destination in copies:
                self.step = (how, message)
                after = self.deliver(state, msg, role, source, destination, state.flight, left)
                if after is not None:
                    yield self.step, after
        for i, msg in enumerate(state.flight):
            message = self.messages.values[msg]
            payload = message.payload_fields
            if message.kind is not _REQUEST:
                continue
            at = SESSION_AT[message.session_id]
            untyped = ill_typed(SESSIONS[at].requester.tenant_id)
            replacements = []
            for name in payload._fields:
                if "swap" in kinds and name in SWAPPED:
                    replacements.append((name, TRUTHS[1 - at][name], f"the other session's {name}"))
                if "ill-typed" in kinds:
                    replacements += [(name, value, f"{value!r} as {name}") for value in untyped]
            for name, value, what in replacements:
                tampered = message._replace(payload_fields=payload._replace(**{name: value}))
                number = self.messages(tampered)
                if number == msg:
                    continue
                self.step = (f"put {what} in {{}}", message)
                flight = sorted(state.flight[:i] + state.flight[i + 1:] + (number,))
                yield self.step, State(state.slots, state.sessions, state.awaits, tuple(flight),
                                       left, frozenset() if left == 0 else
                                       state.known | {number})

    # -- invariants ------------------------------------------------------------

    def check(self, state: State) -> None:
        for cell, number in enumerate(state.slots):
            if number == self.none or (cell, number) in self.checked:
                continue
            self.checked.add((cell, number))
            slot = self.slots.values[number]
            role, session = ROLES[cell // len(SESSIONS)], SESSIONS[cell % len(SESSIONS)]
            if role in CLOUDS and not set(slot.grants) <= HOSTING[role]:
                self.fail("grants", f"{role.value} granted {slot.grants!r}", state, None)
            keyset = slot.keyset
            if type(keyset) is SessionKeySet and (
                    keyset.session_id != session.session_id
                    or set(keyset.keys) != {session.requester.tenant_id}):
                self.fail("keysets", f"{role.value} holds a key set for {sorted(keyset.keys)} "
                          f"in the session of {session.requester.tenant_id}", state, None)

    # -- the search --------------------------------------------------------------

    def run(self) -> int:
        """Visit every state from the start, where each session has begun phase 1."""
        slots, sessions, awaits = list(self.start.slots), list(self.start.sessions), [None, None]
        flight, sent = [], []
        for at in range(len(SESSIONS)):
            self.origin, self.step = None, (f"session {at + 1} begins phase 1", None)
            self._start(slots, sessions, awaits, flight, sent, at)
        first = self._state(self.start, slots, sessions, awaits, flight, sent, self.start.left)
        self.parent[first] = (None, ("both sessions begin phase 1", None))
        self.check(first)
        queue = deque([first])
        while queue:
            state = self.origin = queue.popleft()
            for step, after in self.successors(state):
                if after not in self.parent:
                    self.parent[after] = (state, step)
                    self.check(after)
                    queue.append(after)
        return len(self.parent)


def explore(injections: int = 0, kinds=()) -> Result:
    """Search every state two sessions reach with up to ``injections``
    injections of the named ``kinds``; see the module."""
    unknown = set(kinds) - set(KINDS)
    if unknown:
        raise ValueError(f"unknown injection kinds {sorted(unknown)}; known: {KINDS}")
    began = time.perf_counter()
    explorer = _Explorer(injections, kinds)
    states = explorer.run()
    ends = frozenset((session.status.value, session.drop_reason)
                     for session in explorer.progress.values if session.status is not _IN_PROGRESS)
    return Result(states, time.perf_counter() - began, explorer.failures, ends)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--injections", type=int, default=0, help="K, the injections allowed")
    parser.add_argument("--kinds", default="swap",
                        help=f"comma-separated injection kinds, or all: {','.join(KINDS)}")
    parser.add_argument("--xfail", default="",
                        help=f"comma-separated invariants that must fail: {','.join(INVARIANTS)}")
    args = parser.parse_args(argv)
    kinds = KINDS if args.kinds == "all" else tuple(filter(None, args.kinds.split(",")))
    xfail = set(filter(None, args.xfail.split(",")))
    result = explore(args.injections, kinds)
    print(f"K = {args.injections}, kinds {','.join(kinds) or 'none'}: {result.states} states "
          f"in {result.seconds:.1f} s")
    wrong = 0
    for invariant in INVARIANTS:
        failed = invariant in result.failures
        if failed:
            print(result.report(invariant))
        expected = invariant in xfail
        print(f"{invariant}: {'fails' if failed else 'holds'}"
              f"{', as expected' if failed == expected else ', NOT as expected'}")
        wrong += failed != expected
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
