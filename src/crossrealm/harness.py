"""Scenario loading, experiment orchestration, and metrics reporting.

A scenario is one JSON document; an empty document means the default
setup (1000 principals averaging two sessions each, no timeout), and
every field can be overridden. The report covers session counts,
end-to-end and per-phase response times, traffic timeseries, and the
maximum network delay component.

Reports are emitted as CSV tables with a stable column order, so
identical (scenario, seed) pairs produce byte-identical files.
An expectations file lists (metric, op, target) triples for pass/fail
checking against an emitted report.
"""

from __future__ import annotations

import json
import marshal
import math
import operator
import os
import signal
import sys
from array import array
from bisect import bisect_right
from collections import Counter
from contextlib import suppress
from dataclasses import MISSING, asdict, dataclass, fields
from itertools import accumulate, compress, islice
from pathlib import Path
from types import MappingProxyType
from typing import Iterator, Mapping

from . import simnet
from .errors import (
    InvalidInput,
    ScenarioParseError,
    ScenarioValidationError,
    UnknownMetric,
    is_number,
)
from .protocol import DEFAULT_RESOURCES, PHASE_COUNT, PHASES, RESOURCE_CLOUDS, Role, TimeoutMode
from .simnet import ABSORBED, ConnectionModel, SimRun, Stall, Topology, csv_lines

DEFAULT_SEED = 7
# aggregate keeps horizon_s / sampling_interval_s traffic buckets per series
MAX_BUCKETS = 10**6
# the most sessions a scenario may draw; each costs about 2.3 KiB of peak memory
MAX_SESSIONS = 10**5


def _is_count(v) -> bool:
    # a bool is not a count, and a count fits a float as every number field does
    return type(v) is int and 1 <= v <= sys.float_info.max


# -- JSON value decoders: each turns a JSON form into the value its field
# holds where JSON cannot write that value, and passes any other value on as
# it is, for the field's test or the value class built to refuse. Only JSON
# forms, which no value can check, are checked here: an object where one is
# due, a phase key's text and (in TimeoutMode.parse) a timeout mode's. A bad
# value raises ValueError, TypeError, OverflowError or InvalidInput, which
# scenario_from_dict reports under the field.

def _whole(value):
    """A count: an integral float (3.0) as its int."""
    return int(value) if type(value) is float and value.is_integer() else value


def _number(value):
    """An int as a float; an int too large for one raises OverflowError."""
    return float(value) if type(value) is int else value


def _object(value: object) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{value!r} is not an object")
    return value


def _tuple(decode):
    """The decoder of a JSON list into the tuple of its items, each decoded."""
    return lambda value: tuple(map(decode, value)) if isinstance(value, list) else value


def _value(cls, **decoders):
    """The decoder of a JSON object into a cls, each key's value decoded by
    its decoder, as a number by default; a key that is no field of cls, or
    one left out that has no default, is refused by name."""
    # each field -> whether a document must give it: it has no default
    needed = {f.name: f.default is f.default_factory is MISSING for f in fields(cls)}

    def decode(value):
        refused = [f"unknown key {key!r}" for key in _object(value) if key not in needed] + [
            f"missing key {key!r}" for key, need in needed.items() if need and key not in value]
        if refused:
            raise ValueError(refused[0])
        return cls(**{key: decoders.get(key, _number)(v) for key, v in value.items()})
    return decode


def _phase_bytes(value: object) -> dict[int, int]:
    """Byte sizes keyed by phase index."""
    return {_phase_key(k): _whole(v) for k, v in _object(value).items()}


def _phase_key(key: str) -> int:
    """A phase index in the decimal text scenario_to_dict writes: not "x", "07", " 3" or "1_0"."""
    try:
        index = int(key)
    except ValueError:  # no whole number, or one of more digits than int() reads
        raise ValueError(f"phase key {key!r} is not a phase number") from None
    if str(index) != key:
        raise ValueError(f"phase key {key!r} must be written {str(index)!r}")
    return index


def _role(name: str) -> Role:
    """A role by the name the phase table and the event log give it: "SAC-DB"."""
    try:
        return Role(name)
    except ValueError:
        names = ", ".join(role.value for role in Role)
        raise ValueError(f"role {name!r} must be one of {names}") from None


def _encode_phase_bytes(sizes: Mapping[int, int]) -> dict[str, int]:
    return {str(index): n for index, n in sizes.items()}


def _same(value):
    return value


# Scenario field -> (test of its value, the rule it states, decoder of its
# JSON value, encoder of its value), in field order, which is the document's;
# each test fails NaN, and fails or raises TypeError on a value of another type
_FINITE_NON_NEGATIVE = (lambda v: is_number(v) and 0 <= v < math.inf,
                        "must be a finite, non-negative number", _number, _same)
_PHASE_SIZES = (lambda sizes: sizes is None or isinstance(sizes, Mapping) and all(
    type(k) is int and 1 <= k <= PHASE_COUNT and type(n) is int and 0 <= n <= sys.float_info.max
    for k, n in sizes.items()),
    f"must key phases 1..{PHASE_COUNT} to whole numbers from 0 to the largest float",
    _phase_bytes, _encode_phase_bytes)
_CLOUDS = len(RESOURCE_CLOUDS)  # a scenario names one resource for each resource cloud
_FIELDS = {
    "principals": (_is_count, "must be a whole number from 1 to the largest float", _whole, _same),
    "sessions_per_principal": (lambda v: v == "mean2" or _is_count(v),
                               'must be "mean2" or a whole number from 1 to the largest float',
                               _whole, _same),
    # a value of these types checked its own ranges when it was built
    "timeout_mode": (lambda v: isinstance(v, TimeoutMode),
                     'must be "none", "per-phase:<seconds>" or "localized-f:<seconds>"',
                     TimeoutMode.parse, TimeoutMode.encode),
    "connection": (lambda v: isinstance(v, ConnectionModel), "must be a connection object",
                   _value(ConnectionModel), asdict),
    "resources": (lambda v: type(v) is tuple and all(type(r) is str for r in v)
                  and len(v) == len(set(v)) == _CLOUDS,
                  f"must be a list of {_CLOUDS} distinct strings, one per resource cloud",
                  _tuple(_same), list),
    "network_start_offset_s": _FINITE_NON_NEGATIVE,
    "app_start_offset_s": (lambda v: type(v) is tuple and len(v) == 2 and all(map(is_number, v))
                           and 0 <= v[0] <= v[1] < math.inf,
                           "must be a list of two finite numbers, with 0 <= low <= high",
                           _tuple(_number), list),
    "session_spread_s": _FINITE_NON_NEGATIVE,
    "horizon_s": (lambda v: is_number(v) and -math.inf < v < math.inf, "must be a finite number",
                  _number, _same),
    "sampling_interval_s": (lambda v: is_number(v) and 0 < v < math.inf,
                            "must be a positive, finite number", _number, _same),
    # random.Random seeds with abs(seed), so a negative seed would repeat its positive's run
    "seed": (lambda v: type(v) is int and v >= 0, "must be a whole number from 0", _whole, _same),
    "stalls": (lambda v: type(v) is tuple and all(isinstance(s, Stall) for s in v),
               "must be a list of stall objects",
               _tuple(_value(Stall, role=_role, phase_index=_whole)),
               lambda stalls: [{**asdict(s), "role": s.role.value} for s in stalls]),
    "phase_request_bytes": _PHASE_SIZES,
    "phase_response_bytes": _PHASE_SIZES,
    "topology": (lambda v: isinstance(v, Topology), "must be a topology object", _value(Topology),
                 asdict),
}


@dataclass(frozen=True)
class Scenario:
    """One experiment configuration; defaults are the full-scale setup. Each
    field's type and range and the rules that span fields are checked on
    construction, however a scenario is built. The phase sizes may be given
    in part or not at all: the scenario holds them as whole read-only maps,
    each phase not given at its ``protocol.PHASES`` size."""

    principals: int = 1000
    sessions_per_principal: int | str = "mean2"  # a seeded draw from simnet.MEAN2_SESSIONS
    timeout_mode: TimeoutMode = TimeoutMode.none()
    connection: ConnectionModel = ConnectionModel()
    resources: tuple[str, ...] = DEFAULT_RESOURCES
    network_start_offset_s: float = 105.0
    app_start_offset_s: tuple[float, float] = (5.0, 10.0)
    session_spread_s: float = 540.0
    horizon_s: float = 800.0
    sampling_interval_s: float = 1.0
    seed: int = DEFAULT_SEED
    stalls: tuple[Stall, ...] = ()
    phase_request_bytes: Mapping[int, int] | None = None
    phase_response_bytes: Mapping[int, int] | None = None
    topology: Topology = Topology()

    def __post_init__(self):
        for name, (test, rule, *_) in _FIELDS.items():
            try:
                valid = test(getattr(self, name))
            except TypeError:  # compared with a value of another type
                valid = False
            if not valid:
                raise ScenarioValidationError(name, rule)
        if self.horizon_s <= self.network_start_offset_s:
            raise ScenarioValidationError("horizon_s", "must exceed the network start offset")
        if self.horizon_s / self.sampling_interval_s > MAX_BUCKETS:
            raise ScenarioValidationError(
                "sampling_interval_s", f"must split the horizon into at most {MAX_BUCKETS} buckets")
        most = (max(simnet.MEAN2_SESSIONS) if self.sessions_per_principal == "mean2"
                else self.sessions_per_principal)
        if self.principals * most > MAX_SESSIONS:
            raise ScenarioValidationError("principals", f"may draw {MAX_SESSIONS} sessions at most")
        stalled = [(s.role, s.phase_index) for s in self.stalls]
        if len(set(stalled)) < len(stalled):
            raise ScenarioValidationError("stalls", "a role's response to one phase is stalled twice")
        for kind in ("request_bytes", "response_bytes"):
            given = getattr(self, f"phase_{kind}") or {}
            object.__setattr__(self, f"phase_{kind}", MappingProxyType(
                {spec.index: given.get(spec.index, getattr(spec, kind)) for spec in PHASES}))


def _read_text(path: str | Path) -> str:
    """A file's text; a file that cannot be read, or holds no text, is a ScenarioParseError."""
    try:
        return Path(path).read_text()
    except (UnicodeDecodeError, OSError) as exc:
        detail = exc.strerror if isinstance(exc, OSError) else exc
        raise ScenarioParseError(f"{path}: cannot read: {detail}") from exc


def _read_json(path: str | Path) -> dict:
    """The JSON object in a file; a blank file reads as an empty object."""
    text = _read_text(path)
    try:
        doc = json.loads(text) if text.strip() else {}
    except ValueError as exc:  # bad syntax, or an integer literal too long to convert
        where = f"line {exc.lineno}: {exc.msg}" if isinstance(exc, json.JSONDecodeError) else exc
        raise ScenarioParseError(f"{path}: {where}") from exc
    if not isinstance(doc, dict):
        raise ScenarioParseError(f"{path}: expected a JSON object")
    return doc


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; an empty document is the default."""
    return scenario_from_dict(_read_json(path))


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    unknown = set(doc) - set(_FIELDS)
    if unknown:
        raise ScenarioValidationError(sorted(unknown)[0], "unknown field")
    kwargs: dict = {}
    for name, value in doc.items():
        try:
            kwargs[name] = _FIELDS[name][2](value)
        except (ValueError, TypeError, OverflowError, InvalidInput) as exc:
            raise ScenarioValidationError(name, str(exc)) from exc
    return Scenario(**kwargs)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Full explicit form, including the per-phase byte assignment."""
    return {name: encode(getattr(scenario, name)) for name, (*_, encode) in _FIELDS.items()}


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


# -- metrics ------------------------------------------------------------------

@dataclass
class MetricsReport:
    """Aggregate measurements of one run: the metric tree, each scalar read
    by its dotted name (``report["end_to_end_s.mean"]``), and the series of
    the run's traffic buckets."""

    tree: dict
    active_sessions: list[int]
    traffic_sent_bps: list[float]
    traffic_received_bps: list[float]

    def __getitem__(self, metric: str) -> object:
        return _resolve(self.tree, metric)


def _mean(values: list[float]) -> float:
    """The correctly rounded mean of a non-empty list."""
    return math.fsum(values) / len(values)


def percentile(ordered: list[float], q: float) -> float:
    """The q-th percentile (0..100) of a sorted non-empty list, interpolated
    linearly between its closest ranks (Hyndman and Fan's definition 7) in
    the steps, and so with the rounding, of the common array libraries."""
    position = (len(ordered) - 1) * (q / 100)
    if position >= len(ordered) - 1:
        return ordered[-1]
    low = math.floor(position)
    a, b = ordered[low], ordered[low + 1]
    t = position - low
    # from the nearer end: exact at both ends and monotone in t
    return b - (b - a) * (1 - t) if t >= 0.5 else a + (b - a) * t


# what aggregate reads of a session start, a session completion, a session
# drop and a phase-opening send; a phase-complete delivery reads into its
# phase's durations
_STARTS, _COMPLETES, _DROPS, _OPENS = object(), object(), object(), object()


class _Fold:
    """aggregate's fold of a run's event log, fed its records a range at a
    time in log order, and the report it makes of them.

    The log must be in time order, as the engine's ``schedule`` keeps it, so
    each traffic bucket is one slice of a range, found by bisection. The
    bits sent and received, the session starts and ends, drops and discards
    are counted per bucket by shape code, in C, and each count is multiplied
    by its code's value once. A bucket may be split across two ranges, so
    each range adds to its sums; they are sums of whole numbers, so they
    are exact in any grouping. Python walks only the records whose times the
    durations need: the send that opens a phase (by the phase's source), its
    phase-complete delivery, and each session's start and end. A session's
    phases run one at a time, so the open-phase table holds, under each
    session index, the time of its open phase's opening send until that
    phase completes or the session drops: it grows only with the sessions in
    flight. The per-code tables grow when a range brings new shapes, and the
    start times when it brings new sessions. No container is built per
    record, so the fold sets off no garbage collection over the run's objects.
    The largest network delay is found from the scenario and the send
    shapes whose tally is above 0 (the engine makes one for every leg
    before the run, sent on or not), so the log, the scenario and the
    horizon flag are all the report reads.
    """

    def __init__(self, scenario: Scenario):
        self.scenario = scenario
        self.buckets = int(math.floor(scenario.horizon_s / scenario.sampling_interval_s)) + 1
        self.sent = [0.0] * self.buckets
        self.received = [0.0] * self.buckets
        # the active-session count's steps: a session takes it up at its
        # start bucket and down after its end bucket (past the horizon if it
        # is in flight then); their running sum is the count
        self.steps = [0] * (self.buckets + 1)
        # per shape code: the shape, its records, what a record of it adds
        # to its bucket (bits sent and received, steps up and down) and the
        # durations' reading of it (None for none)
        self.shapes: list[tuple] = []
        self.tally: list[int] = []
        self.adds: list[tuple[float, float, int, int]] = []
        self.reads: list = []
        self.needed: list[bool] = []
        self.phase_durations = {k: array("d") for k in range(1, PHASE_COUNT + 1)}
        self.started_at = array("d")  # session index -> start time
        self.durations = array("d")  # end-to-end time of each completed session
        self.open_since: dict[int, float] = {}  # session index -> its open phase's opening send

    def _learn(self, shapes: list[tuple]) -> None:
        """Extend the per-code tables by the shapes not seen before."""
        for shape in shapes[len(self.shapes):]:
            kind, source, _, phase, size, outcome = shape
            adds, read = (0.0, 0.0, 0, 0), None
            if kind == "send":
                adds = (size * 8.0, 0.0, 0, 0)
                if source == PHASES[phase - 1].source.value:  # the send opens its phase
                    read = _OPENS
            elif kind == "deliver":
                adds = (0.0, size * 8.0, 0, 0)
                if outcome == "phase-complete":
                    read = self.phase_durations[phase]
            elif kind == "session-start":
                adds, read = (0.0, 0.0, 1, 0), _STARTS
            elif kind == "session-complete":
                adds, read = (0.0, 0.0, 0, 1), _COMPLETES
            elif kind == "session-drop":
                adds, read = (0.0, 0.0, 0, 1), _DROPS
            self.shapes.append(shape)
            self.tally.append(0)
            self.adds.append(adds)
            self.reads.append(read)
            self.needed.append(read is not None)

    def feed(self, log: simnet.EventLog, start: int = 0) -> None:
        """Fold the log's records from ``start`` on, which follow those fed before.
        A phase completed in a session that did not open it raises ValueError."""
        self._learn(log.shapes)
        self.started_at += array("d", [0.0]) * (len(log.session_ids) - len(self.started_at))
        interval, last = self.scenario.sampling_interval_s, self.buckets - 1
        sent, received, steps, tally, adds = (self.sent, self.received, self.steps, self.tally,
                                              self.adds)

        def bucket(time_s: float) -> int:
            return int(time_s / interval)

        times, codes = log.times, log.codes
        lo, stop = start, len(log)
        while lo < stop:
            b = bucket(times[lo])
            if b >= last:
                b, hi = last, stop
            else:
                hi = bisect_right(times, b, lo, stop, key=bucket)
            out = into = 0.0
            up = down = 0
            for code, count in Counter(codes[lo:hi]).items():
                tally[code] += count
                bits_out, bits_in, starts, ends = adds[code]
                out += count * bits_out
                into += count * bits_in
                up += count * starts
                down += count * ends
            sent[b] += out
            received[b] += into
            steps[b] += up
            steps[b + 1] -= down
            lo = hi

        columns = (times, log.sessions, codes)
        if start:  # a range walks faster as a copy than as a view
            columns = tuple(column[start:] for column in columns)
        reads, started_at, durations = self.reads, self.started_at, self.durations
        open_since = self.open_since
        for time_s, session, code in compress(zip(*columns),
                                              map(self.needed.__getitem__, columns[2])):
            read = reads[code]
            if read is _OPENS:
                if session not in open_since:
                    open_since[session] = time_s
            elif read is _STARTS:
                started_at[session] = time_s
            elif read is _COMPLETES:
                durations.append(time_s - started_at[session])
            elif read is _DROPS:
                open_since.pop(session, None)
            else:
                try:
                    read.append(time_s - open_since.pop(session))
                except KeyError:  # a log read back may complete a phase it never opened
                    raise ValueError(f"session {log.session_ids[session]} completes phase "
                                     f"{self.shapes[code][3]}, which it never opened") from None

    def report(self, horizon_exceeded: bool) -> MetricsReport:
        """The report of the records fed, given the one fact of the run that
        no record holds: whether the horizon cut it off."""
        # the engine makes each deliver and end record's code when it first
        # logs one, so in code order each outcome and role comes in the order
        # of its first record
        started = 0
        delay = 0.0  # the largest network time of a send
        drops: dict[str, int] = {}  # drop outcome -> sessions
        discarded: dict[str, dict[str, int]] = {}  # receiving role -> outcome -> deliveries
        scenario = self.scenario
        for (kind, source, destination, _, size, outcome), count in zip(self.shapes, self.tally):
            if not count:
                continue
            if kind == "send":
                delay = max(delay, simnet.transmit_components(
                    size, source, destination, scenario.connection, scenario.topology))
            elif kind == "session-start":
                started += count
            elif kind == "session-drop":
                drops[outcome] = drops.get(outcome, 0) + count
            elif kind == "deliver" and outcome.startswith("discarded:"):
                counts = discarded.setdefault(destination, {})
                counts[outcome] = counts.get(outcome, 0) + count

        durations = sorted(self.durations)
        completed, dropped = len(durations), sum(drops.values())
        mean = p50 = p90 = p99 = None
        if durations:
            mean, p50, p90, p99 = (_mean(durations), percentile(durations, 50),
                                   percentile(durations, 90), percentile(durations, 99))

        # role -> its own discards: those the engine absorbed no role saw
        violations = {role.value: sum(n for outcome, n in discarded.get(role.value, {}).items()
                                      if outcome != ABSORBED) for role in Role}
        interval = scenario.sampling_interval_s
        sent_bps = [bits / interval for bits in self.sent]
        received_bps = [bits / interval for bits in self.received]
        tree = {
            "sessions": {
                "started": started,
                "completed": completed,
                "dropped": dropped,
                "in_flight_at_horizon": started - completed - dropped,
                "dropped_by_reason": {outcome[len("dropped:"):]: n
                                      for outcome, n in drops.items()},
            },
            "end_to_end_s": {"mean": mean, "p50": p50, "p90": p90, "p99": p99,
                             "count": completed},
            "per_phase_s": {str(k): {"mean": _mean(v) if v else None, "count": len(v)}
                            for k, v in self.phase_durations.items()},
            "traffic_bps": {"peak_sent": max(sent_bps), "peak_received": max(received_bps),
                            "mean_sent": _mean(sent_bps)},
            "max_network_delay_s": delay,
            # receiving role -> discard reason -> deliveries
            "discards": {role: {outcome[len("discarded:"):]: n for outcome, n in counts.items()}
                         for role, counts in discarded.items()},
            "violations": violations,
            "horizon_exceeded": horizon_exceeded,
            "sampling_interval_s": interval,
            "seed": scenario.seed,
        }
        active = list(accumulate(self.steps[:self.buckets]))
        return MetricsReport(tree, active, sent_bps, received_bps)


def aggregate(run: SimRun, writer: EventLogWriter | None = None) -> MetricsReport:
    """Fold a run's event log, its one account, into a MetricsReport. Beside
    the log it reads only the scenario and whether the horizon cut the run
    off, which no record holds.

    Given the writer that the run handed its log to, made for the run's
    scenario, the writer's child has folded each hand-off as it formatted it
    (``_Fold.feed``), and this takes its report (``EventLogWriter.finish``,
    which ends the child). Without one, or if no report came, this process
    folds the whole log itself.
    """
    report = None
    if writer is not None and run.scenario == writer.scenario:
        report = writer.finish(run)  # else the child's fold would be another run's
    if report is None:
        fold = _Fold(run.scenario)
        fold.feed(run.records)
        report = fold.report(run.horizon_exceeded)
    return report


def run_experiment(scenario: Scenario) -> MetricsReport:
    """Drive the simulator once and aggregate its event log."""
    return aggregate(simnet.run(scenario))


# -- report files ----------------------------------------------------------------

def _flatten(tree: dict, prefix: str = "") -> list[tuple[str, object]]:
    rows = []
    for key, value in tree.items():
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, name + "."))
        else:
            rows.append((name, value))
    return rows


def _fmt(value: object) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    return repr(value) if isinstance(value, float) else str(value)


def emit_report(report: MetricsReport, out_dir: str | Path) -> list[Path]:
    """Write summary, per_phase, and timeseries CSV tables; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {key: value for key, value in report.tree.items() if key != "per_phase_s"}
    per_phase = report.tree["per_phase_s"]
    interval = report["sampling_interval_s"]
    # a run with no sessions produces tables with headers and no data rows
    empty = report["sessions.started"] == 0
    n = 0 if empty else len(report.active_sessions)
    phase_rows = () if empty else tuple(range(1, PHASE_COUNT + 1))

    paths = [out / "summary.csv", out / "per_phase.csv", out / "timeseries.csv"]
    lines = ["metric,value"]
    lines += [f"{k},{_fmt(v)}" for k, v in sorted(_flatten(summary))]
    paths[0].write_text("\n".join(lines) + "\n")
    lines = ["phase_index,mean_response_s,count"]
    for k in phase_rows:
        entry = per_phase[str(k)]
        lines.append(f"{k},{_fmt(entry['mean'])},{entry['count']}")
    paths[1].write_text("\n".join(lines) + "\n")
    lines = ["t_s,active_sessions,traffic_sent_bps,traffic_received_bps"]
    for i in range(n):
        lines.append(f"{_fmt(i * interval)},{report.active_sessions[i]},"
                     f"{_fmt(report.traffic_sent_bps[i])},"
                     f"{_fmt(report.traffic_received_bps[i])}")
    paths[2].write_text("\n".join(lines) + "\n")
    return paths


# lines of events.csv joined per write: few enough that a chunk adds
# nothing to the run's peak memory, enough that writes cost little
EVENT_LOG_CHUNK_LINES = 512


def _usable_cpus() -> int:
    """The CPUs this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _single_threaded() -> bool:
    """Whether this process runs no thread beside its own, so that a fork
    can leave no lock held in the child (Python 3.12+ warns of that)."""
    try:
        return len(os.listdir("/proc/self/task")) == 1
    except OSError:  # no procfs: the threads that the threading module knows
        threading = sys.modules.get("threading")
        return threading is None or threading.active_count() == 1


def _write_lines(out, lines: Iterator[str]) -> None:
    while chunk := "".join(islice(lines, EVENT_LOG_CHUNK_LINES)):
        out.write(chunk)


def _event_log_paths(out_dir: str | Path) -> tuple[Path, Path]:
    """events.csv under the directory, and the name it is written under
    until it is whole."""
    path = Path(out_dir) / "events.csv"
    return path, path.with_name("events.csv.part")


def _send(fd: int, data) -> None:
    """Write all of ``data`` to ``fd``: a signal handler that runs during a
    write to a pipe can cut it short."""
    view = memoryview(data).cast("B")
    while view:
        view = view[os.write(fd, view):]


# the writer's pipe, where its size can be set: 1 MiB, Linux's default
# limit for an unprivileged process, holds the hand-off of one slice of a 3000-principal run (about 450
# KB), so the run's process seldom waits for the child to read
PIPE_BYTES = 1 << 20


def _serve_in_child(pipe: int, answers: int, part: Path, scenario: Scenario) -> None:
    """The writer child's work: extend an empty log by each hand-off read
    from ``pipe`` (a tuple), format the new records into ``part`` and fold
    them, until the end mark (the run's horizon flag); then, once the file is
    closed whole, write the report, given that flag, to ``answers``. Each is
    one ``marshal`` value, and a pipe closed before one is whole raises
    EOFError. The report is the receipt for the file: should anything fail,
    none is written, and the file is not touched after it."""
    log, fold = simnet.EventLog(), _Fold(scenario)
    part.parent.mkdir(parents=True, exist_ok=True)
    with open(pipe, "rb") as source, part.open("w") as out:
        while type(piece := marshal.load(source)) is tuple:
            done = len(log)
            ids, shapes, *columns = piece
            log.session_ids += ids
            log.shapes += shapes
            for column, entries in zip((log.times, log.sessions, log.codes), columns):
                column.frombytes(entries)
            _write_lines(out, csv_lines(log, done))  # the header with record 0
            fold.feed(log, done)
        if not log:  # a run that logged nothing: the header alone
            _write_lines(out, csv_lines(log))
    report = fold.report(piece)
    _send(answers, marshal.dumps((report.tree, report.active_sessions, report.traffic_sent_bps,
                                  report.traffic_received_bps)))


def _remove(part: Path) -> None:
    """Remove the temporary event log, if there is one; a directory of its
    name, or one that cannot be reached, is left as it is, so that the
    error of the run that met it is the one raised."""
    with suppress(OSError):
        part.unlink(missing_ok=True)


class EventLogWriter:
    """Writes a run's events.csv, and folds its report, in one forked child
    while the run goes on; without a child, ``aggregate`` and
    ``emit_event_log`` fold and format the log in this process.

    The writer forks when it is made, before the run builds anything, so
    the pages the run builds are never shared with the child nor copied
    on write; the child has the writer's scenario from the fork. It forks
    only where this process can fork, may run on two CPUs or more and runs
    one thread. ``simnet.run`` hands the log to the writer after each slice
    of its horizon; each hand-off with new records sends the child, over a
    pipe, one ``marshal`` tuple: the new session ids, the new shapes and
    the new entries of the log's three columns as bytes. The child extends
    its own log by them, formats the new records into ``events.csv.part``
    and folds them as ``aggregate`` would. ``finish`` sends the end mark,
    the run's horizon flag, reads the child's report from a second pipe as
    one ``marshal`` tuple of its four fields and ends the child. The child
    sends its report only once the file is closed whole, so the report is
    the receipt for the file, and this process owns the file from then on:
    ``emit_event_log`` renames it where a report came and writes over it
    where none did, and ``close`` removes it.
    """

    def __init__(self, out_dir: str | Path, scenario: Scenario):
        self.part = _event_log_paths(out_dir)[1]
        self.scenario = scenario  # the one the child folds with
        self.pid: int | None = None  # the child's, until it is ended
        self.pipe: int | None = None  # the pipe's write end, while the child is fed
        self.answers: int | None = None  # the answer pipe's read end, until it is read
        self.report: MetricsReport | None = None  # the child's, once ``finish`` read it
        # the records, session ids and shapes the child holds: a new log's
        self.sent, self.ids, self.shapes = 0, len(simnet.EventLog().session_ids), 0
        if not (hasattr(os, "fork") and _usable_cpus() > 1 and _single_threaded()):
            return
        import fcntl  # only here: a POSIX module, as os.fork is

        read, write = os.pipe()
        answers, answer = os.pipe()
        if hasattr(fcntl, "F_SETPIPE_SZ"):  # Linux: one slice's hand-off fits
            try:
                fcntl.fcntl(write, fcntl.F_SETPIPE_SZ, PIPE_BYTES)
            except OSError:  # above the system's limit: the default size stays
                pass
        try:
            pid = os.fork()
        except OSError:  # no process to spare
            for fd in (read, write, answers, answer):
                os.close(fd)
            return
        if pid == 0:  # the child: its report, not its exit status, tells how it ended
            try:  # no exception or signal may unwind it into its parent's frames
                os.close(write)
                os.close(answers)
                _serve_in_child(read, answer, self.part, scenario)
            finally:
                os._exit(0)
        os.close(read)
        os.close(answer)
        self.pid, self.pipe, self.answers = pid, write, answers

    def __call__(self, log: simnet.EventLog) -> None:
        if self.pipe is None or len(log) == self.sent:
            return
        columns = (memoryview(c)[self.sent:] for c in (log.times, log.sessions, log.codes))
        try:
            _send(self.pipe, marshal.dumps((log.session_ids[self.ids:], log.shapes[self.shapes:],
                                            *columns)))
        except BrokenPipeError:  # the child has ended
            os.close(self.pipe)
            self.pipe = None
            return
        self.sent, self.ids, self.shapes = len(log), len(log.session_ids), len(log.shapes)

    def finish(self, run: SimRun) -> MetricsReport | None:
        """The child's report of the run, and so the receipt for ``part``
        holding its whole log; None where there is no child, it was not fed
        the whole log or it ended before its answer was whole (EOFError,
        as ``marshal`` reads a cut-short value). The first call sends
        the end mark if the child was fed the whole log, reads the answer
        and ends the child; later calls return the first call's answer."""
        if self.pipe is not None and self.sent == len(run.records):
            # the child has ended, before its answer or part way through it
            with suppress(BrokenPipeError, EOFError):
                _send(self.pipe, marshal.dumps(run.horizon_exceeded))
                with open(self.answers, "rb") as source:
                    self.answers = None
                    self.report = MetricsReport(*marshal.load(source))
        if self.pid is not None:
            self._end()
        return self.report

    def close(self) -> None:
        """End a child that is still running and remove the part file; after
        ``emit_event_log`` there is neither."""
        if self.pid is not None:
            self._end()
        _remove(self.part)

    def _end(self) -> None:
        """Close both pipes, so a child still writing an answer that is not
        read fails at once rather than block, then end the child and wait
        for it. A child that answered has nothing left to do."""
        for fd in (self.pipe, self.answers):
            if fd is not None:
                os.close(fd)
        self.pipe = self.answers = None
        os.kill(self.pid, signal.SIGKILL)
        os.waitpid(self.pid, 0)
        self.pid = None


def emit_event_log(run: SimRun, out_dir: str | Path,
                   writer: EventLogWriter | None = None) -> Path:
    """Write the run's event log as events.csv, in chunks of joined lines;
    returns once the whole file is written. Given the writer that the run
    handed its log to, made for this directory, this keeps the child's file
    if and only if the child's report came (``EventLogWriter.finish``, which
    ends the child if ``aggregate`` did not); otherwise this process formats
    the whole log. The file is written under a temporary name and renamed
    once whole, so a failure leaves neither a partial events.csv nor the
    temporary file."""
    path, part = _event_log_paths(out_dir)
    try:
        if writer is None or writer.part != part or writer.finish(run) is None:
            path.parent.mkdir(parents=True, exist_ok=True)
            with part.open("w") as out:
                _write_lines(out, csv_lines(run.records))
        os.replace(part, path)
    except BaseException:
        _remove(part)
        raise
    return path


def _read_table(path: Path, *columns) -> list[tuple]:
    """The data rows of a CSV table, each field read by its column's function;
    a row that does not fit raises ScenarioParseError naming the file and line."""
    rows = []
    for lineno, line in enumerate(_read_text(path).splitlines()[1:], start=2):
        fields = line.split(",")
        try:
            if len(fields) != len(columns):
                raise ValueError(f"expected {len(columns)} fields, found {len(fields)}")
            rows.append(tuple(read(field) for read, field in zip(columns, fields)))
        except ValueError as exc:
            raise ScenarioParseError(f"{path}: line {lineno}: {exc}") from exc
    return rows


def _summary_value(raw: str) -> object:
    if raw == "":
        return None
    if raw in ("true", "false"):
        return raw == "true"
    return float(raw) if ("." in raw or "e" in raw or "inf" in raw) else int(raw)


def load_report(report_dir: str | Path) -> dict:
    """Reload an emitted report's CSV tables as a metric tree."""
    d = Path(report_dir)
    if not (d / "summary.csv").exists():
        raise ScenarioParseError(f"no summary.csv under {d}")
    tree: dict = {}
    summary = d / "summary.csv"
    for lineno, (name, value) in enumerate(_read_table(summary, str, _summary_value), start=2):
        *parents, leaf = name.split(".")
        node = tree
        for part in parents:
            node = node.setdefault(part, {})
            if not isinstance(node, dict):
                break
        # a name already given, or one nested under another row's value or
        # holding other rows' values, cannot be placed in the tree
        if not isinstance(node, dict) or leaf in node:
            raise ScenarioParseError(f"{summary}: line {lineno}: {name} clashes with an earlier row")
        node[leaf] = value
    per_phase = d / "per_phase.csv"
    phases = tree["per_phase_s"] = {}
    for lineno, (k, mean, count) in enumerate(
            _read_table(per_phase, str, lambda v: float(v) if v else None, int), start=2):
        if k in phases:  # else the last row would silently win
            raise ScenarioParseError(f"{per_phase}: line {lineno}: phase {k} is given twice")
        phases[k] = {"mean": mean, "count": count}
    return tree


# -- acceptance expectations --------------------------------------------------------

@dataclass(frozen=True)
class Verdict:
    name: str
    metric: str
    passed: bool
    measured: object
    detail: str


def _resolve(tree: dict, dotted: str) -> object:
    node: object = tree
    for part in dotted.split("."):
        if not isinstance(node, dict) or part not in node:
            raise UnknownMetric(dotted)
        node = node[part]
    if isinstance(node, dict):
        raise UnknownMetric(dotted)
    return node


# expectation op -> (symbol shown in the verdict detail, comparison)
_COMPARISONS = {
    "gte": (">=", operator.ge),
    "lte": ("<=", operator.le),
    "lt": ("<", operator.lt),
    "gt": (">", operator.gt),
}


def _verdict(tree: dict, exp: dict) -> Verdict:
    metric = exp["metric"]
    op = exp["op"]
    measured = _resolve(tree, metric)
    value = float("nan") if measured is None else float(measured)
    if op in _COMPARISONS:
        symbol, compare = _COMPARISONS[op]
        target = float(exp["target"])
        passed = compare(value, target)
        detail = f"{value:g} {symbol} {target:g}"
    elif op == "within-pct":
        target = float(exp["target"])
        tol = float(exp["tolerance_pct"]) / 100.0 * abs(target)
        passed = abs(value - target) <= tol
        detail = f"{value:g} within {target:g} +/- {tol:g}"
    elif op == "range":
        lo, hi = float(exp["lo"]), float(exp["hi"])
        passed = lo <= value <= hi
        detail = f"{value:g} in [{lo:g}, {hi:g}]"
    else:
        raise ValueError(f"unknown expectation op {op!r}")
    if value != value:  # NaN: metric absent from this run
        passed = False
        detail = "no measurement"
    return Verdict(name=exp.get("name", metric), metric=metric,
                   passed=passed, measured=measured, detail=detail)


def check_acceptance(report: MetricsReport | dict, expectations: list[dict]) -> list[Verdict]:
    """Evaluate each expectation against the report; one verdict per entry.

    A malformed entry raises ScenarioParseError naming its index and metric.
    """
    tree = report.tree if isinstance(report, MetricsReport) else report
    verdicts = []
    for index, exp in enumerate(expectations):
        metric = exp.get("metric", "?") if isinstance(exp, dict) else "?"
        try:
            verdicts.append(_verdict(tree, exp))
        except UnknownMetric:
            raise UnknownMetric(f"expectation {index} ({metric}): unknown metric") from None
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            detail = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ScenarioParseError(f"expectation {index} ({metric}): {detail}") from exc
    return verdicts


def load_expectations(path: str | Path) -> list[dict]:
    doc = _read_json(path)
    if not isinstance(doc.get("expectations"), list):
        raise ScenarioParseError(f"{path}: expected an object with an 'expectations' list")
    return doc["expectations"]
