"""Scenario loading, experiment orchestration, and metrics reporting.

A scenario is one JSON document; an empty document means the default
setup (1000 principals averaging two sessions each, no timeout), and
every field can be overridden. The report covers session counts,
end-to-end and per-phase response times, traffic timeseries, and the
maximum network delay component.

Reports are emitted as either CSV or JSON tables with a stable column
order, so identical (scenario, seed) pairs produce byte-identical files.
An expectations file lists (metric, op, target) triples for pass/fail
checking against an emitted report.
"""

from __future__ import annotations

import json
import math
import operator
import sys
from array import array
from dataclasses import asdict, dataclass
from itertools import accumulate
from pathlib import Path
from typing import Mapping

from . import simnet
from .errors import (
    InvalidInput,
    ScenarioParseError,
    ScenarioValidationError,
    UnknownMetric,
    is_number,
)
from .protocol import PHASE_COUNT, Role, TimeoutMode, protocol_table
from .simnet import ABSORBED, ConnectionModel, SimRun, Stall, Topology, csv_lines

DEFAULT_SEED = 7
# aggregate keeps horizon_s / sampling_interval_s traffic buckets per series
MAX_BUCKETS = 10**6
# the most sessions a scenario may draw; each costs about 4.3 KiB of peak memory
MAX_SESSIONS = 10**5


def _is_count(v) -> bool:
    # a bool is not a count, and a count fits a float as every number field does
    return type(v) is int and 1 <= v <= sys.float_info.max


# Scenario field -> (test of its value, the rule it states), in field order;
# each test fails NaN, and fails or raises TypeError on a value of another type
_FINITE_NON_NEGATIVE = (lambda v: is_number(v) and 0 <= v < math.inf,
                        "must be a finite, non-negative number")
_PHASE_SIZES = (lambda sizes: sizes is None or isinstance(sizes, Mapping) and all(
    type(k) is int and 1 <= k <= PHASE_COUNT and type(n) is int and 0 <= n <= sys.float_info.max
    for k, n in sizes.items()),
    f"must key phases 1..{PHASE_COUNT} to whole numbers from 0 to the largest float")
_RANGES = {
    "principals": (_is_count, "must be a whole number from 1 to the largest float"),
    "sessions_per_principal": (lambda v: v == "mean2" or _is_count(v),
                               'must be "mean2" or a whole number from 1 to the largest float'),
    # a value of these types checked its own ranges when it was built
    "timeout_mode": (lambda v: isinstance(v, TimeoutMode), "must be a TimeoutMode"),
    "connection": (lambda v: isinstance(v, ConnectionModel), "must be a ConnectionModel"),
    "resources": (lambda v: len(v) == 2 and all(type(r) is str for r in v) and v[0] != v[1],
                  "must be two distinct strings"),
    "network_start_offset_s": _FINITE_NON_NEGATIVE,
    "app_start_offset_s": (lambda v: len(v) == 2 and all(map(is_number, v))
                           and 0 <= v[0] <= v[1] < math.inf,
                           "must be two finite numbers, with 0 <= low <= high"),
    "session_spread_s": _FINITE_NON_NEGATIVE,
    "horizon_s": (lambda v: is_number(v) and -math.inf < v < math.inf, "must be a finite number"),
    "sampling_interval_s": (lambda v: is_number(v) and 0 < v < math.inf,
                            "must be a positive, finite number"),
    "seed": (lambda v: type(v) is int, "must be a whole number"),
    "stalls": (lambda v: type(v) is tuple and all(isinstance(s, Stall) for s in v),
               "must be a tuple of Stalls"),
    "topology": (lambda v: isinstance(v, Topology), "must be a Topology"),
    "phase_request_bytes": _PHASE_SIZES,
    "phase_response_bytes": _PHASE_SIZES,
}


@dataclass(frozen=True)
class Scenario:
    """One experiment configuration; defaults are the full-scale setup. Each
    field's type and range and the rules that span fields are checked on
    construction, however a scenario is built."""

    principals: int = 1000
    sessions_per_principal: int | str = "mean2"  # "mean2" = seeded draw from {1,2,3}
    timeout_mode: TimeoutMode = TimeoutMode.none()
    connection: ConnectionModel = ConnectionModel()
    resources: tuple[str, str] = ("R1", "R2")
    network_start_offset_s: float = 105.0
    app_start_offset_s: tuple[float, float] = (5.0, 10.0)
    session_spread_s: float = 540.0
    horizon_s: float = 800.0
    sampling_interval_s: float = 1.0
    seed: int = DEFAULT_SEED
    stalls: tuple[Stall, ...] = ()
    topology: Topology = Topology()
    phase_request_bytes: Mapping[int, int] | None = None
    phase_response_bytes: Mapping[int, int] | None = None

    def __post_init__(self):
        for name, (test, rule) in _RANGES.items():
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
        most = 3 if self.sessions_per_principal == "mean2" else self.sessions_per_principal
        if self.principals * most > MAX_SESSIONS:
            raise ScenarioValidationError("principals", f"may draw {MAX_SESSIONS} sessions at most")
        stalled = [(s.role, s.phase_index) for s in self.stalls]
        if len(set(stalled)) < len(stalled):
            raise ScenarioValidationError("stalls", "a role's response to one phase is stalled twice")


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


# -- JSON value decoders: each checks its value's JSON type and shape and
# raises ValueError, TypeError, KeyError, OverflowError or InvalidInput on a
# bad one, which scenario_from_dict reports under the field. Ranges, and the
# types a decoder need not convert, are checked by the values built: the
# Scenario, TimeoutMode, Stall, ConnectionModel, Topology.

def _whole(value: object) -> int:
    """A count: a JSON number with no fractional part (3 or 3.0)."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not a whole number")
    return value


def _number(value: object) -> float:
    """A JSON number as a float; an integer too large for one raises OverflowError."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"{value!r} is not a number")
    return float(value)


def _object(value: object) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{value!r} is not an object")
    return value


def _pair(value: object, decode) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{value!r} is not a list of two")
    return (decode(value[0]), decode(value[1]))


def _stall(doc: dict) -> Stall:
    return Stall(Role(doc["role"]), _whole(doc["phase_index"]), _number(doc["extra_delay_s"]))


def _unique(items) -> dict:
    """A dict of (key, value) pairs in which no key is given twice."""
    decoded = {}
    for key, value in items:
        if key in decoded:
            raise ValueError(f"{key!r} is given twice")
        decoded[key] = value
    return decoded


def _topology(value: object) -> Topology:
    """The topology checks its own ranges and links."""
    decoders = {"propagation_delay_s": _number,
                "link_counts": lambda v: _unique(((a, b), _whole(n)) for a, b, n in v)}
    topo = _object(value)
    unknown = set(topo) - set(decoders)
    if unknown:
        raise ValueError(f"unknown key {sorted(unknown)[0]!r}")
    return Topology(**{key: decoders[key](v) for key, v in topo.items()})


def _encode_topology(topology: Topology) -> dict:
    doc = {"propagation_delay_s": topology.propagation_delay_s}
    if topology.link_counts:
        doc["link_counts"] = [[a, b, n] for (a, b), n in topology.link_counts.items()]
    return doc


def _phase_bytes(value: object) -> dict[int, int]:
    """Byte sizes keyed by phase index."""
    return _unique((int(k), _whole(v)) for k, v in _object(value).items())


def _same(value):
    return value


# scenario document field -> (decoder of its JSON value, encoder of the
# Scenario field), in the order scenario_to_dict writes them
_FIELDS = {
    "principals": (_whole, _same),
    "sessions_per_principal": (lambda v: v if v == "mean2" else _whole(v), _same),
    "timeout_mode": (TimeoutMode.parse, TimeoutMode.encode),
    "connection": (lambda v: ConnectionModel(**{k: _number(x) for k, x in _object(v).items()}),
                   asdict),
    "resources": (lambda v: _pair(v, _same), list),
    "network_start_offset_s": (_number, _same),
    "app_start_offset_s": (lambda v: _pair(v, _number), list),
    "session_spread_s": (_number, _same),
    "horizon_s": (_number, _same),
    "sampling_interval_s": (_number, _same),
    "seed": (_whole, _same),
    "stalls": (lambda v: tuple(_stall(s) for s in v),
               lambda stalls: [{**asdict(s), "role": s.role.value} for s in stalls]),
    "phase_request_bytes": (_phase_bytes, lambda sizes: {
        str(s.index): (sizes or {}).get(s.index, s.request_bytes) for s in protocol_table()}),
    "phase_response_bytes": (_phase_bytes, lambda sizes: {
        str(s.index): (sizes or {}).get(s.index, s.response_bytes) for s in protocol_table()}),
    "topology": (_topology, _encode_topology),
}


def scenario_from_dict(doc: dict) -> Scenario:
    if not isinstance(doc, dict):
        raise ScenarioParseError("scenario document must be a JSON object")
    unknown = set(doc) - set(_FIELDS)
    if unknown:
        raise ScenarioValidationError(sorted(unknown)[0], "unknown field")
    kwargs: dict = {}
    for name, value in doc.items():
        try:
            kwargs[name] = _FIELDS[name][0](value)
        except (ValueError, TypeError, KeyError, OverflowError, InvalidInput) as exc:
            detail = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ScenarioValidationError(name, detail) from exc
    return Scenario(**kwargs)


def scenario_to_dict(scenario: Scenario) -> dict:
    """Full explicit form, including the per-phase byte assignment."""
    return {name: encode(getattr(scenario, name)) for name, (_, encode) in _FIELDS.items()}


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


def aggregate(run: SimRun) -> MetricsReport:
    """Fold a run's event log, its one account, into a MetricsReport. Beside
    the log it reads only what no record holds: the scenario, the largest
    network delay and whether the horizon cut the run off.

    The fold is one pass over the log's columns that builds no container
    per record, so it sets off no garbage collection over the finished run's
    objects: each record's facts are looked up by its shape code, and
    discards and drops are counted under the record's outcome. It keeps
    only what is in flight: a session's phases run one at a time (all sends
    of phase k come before its phase-complete, and phase k + 1's first send
    after it), so the open-phase table holds, under each session index, the
    time of the first send of the session's open phase, and drops the entry
    at that phase's phase-complete, which names the phase.
    """
    interval = run.scenario.sampling_interval_s
    buckets = int(math.floor(run.scenario.horizon_s / interval)) + 1
    last = buckets - 1
    sent = [0.0] * buckets
    received = [0.0] * buckets
    # a session is active from its start bucket to its end bucket: it steps
    # the count up at the first and down after the last (past the horizon if
    # it is in flight then), and the running sum of the steps is the count
    steps = [0] * (buckets + 1)
    started = 0
    log = run.records
    started_at = array("d", [0.0]) * len(log.session_ids)  # session index -> start time
    durations = array("d")  # end-to-end time of each completed session
    drops: dict[str, int] = {}  # drop outcome -> sessions
    open_since: dict[int, float] = {}  # session index -> its open phase's first send
    phase_durations = {k: array("d") for k in range(1, PHASE_COUNT + 1)}
    discarded: dict[str, dict[str, int]] = {}  # receiving role -> outcome -> deliveries

    shapes = log.shapes
    for time_s, session, code in zip(log.times, log.sessions, log.codes):
        kind, _, destination, phase, size, outcome = shapes[code]
        b = int(time_s / interval)
        if b > last:
            b = last
        if kind == "send":
            sent[b] += size * 8.0
            # a phase's request opens it; its response is sent while it is open
            if session not in open_since:
                open_since[session] = time_s
        elif kind == "deliver":
            received[b] += size * 8.0
            if outcome == "phase-complete":
                phase_durations[phase].append(time_s - open_since.pop(session))
            elif outcome.startswith("discarded:"):
                counts = discarded.get(destination)
                if counts is None:
                    counts = discarded[destination] = {}
                counts[outcome] = counts.get(outcome, 0) + 1
        elif kind == "session-start":
            started += 1
            started_at[session] = time_s
            steps[b] += 1
        elif kind == "session-complete":
            durations.append(time_s - started_at[session])
            steps[b + 1] -= 1
        elif kind == "session-drop":
            drops[outcome] = drops.get(outcome, 0) + 1
            steps[b + 1] -= 1

    durations = sorted(durations)
    completed, dropped = len(durations), sum(drops.values())
    mean = p50 = p90 = p99 = None
    if durations:
        mean, p50, p90, p99 = (_mean(durations), percentile(durations, 50),
                               percentile(durations, 90), percentile(durations, 99))

    sent_bps = [bits / interval for bits in sent]
    received_bps = [bits / interval for bits in received]
    tree = {
        "sessions": {
            "started": started,
            "completed": completed,
            "dropped": dropped,
            "in_flight_at_horizon": started - completed - dropped,
            "dropped_by_reason": {outcome[len("dropped:"):]: n for outcome, n in drops.items()},
        },
        "end_to_end_s": {"mean": mean, "p50": p50, "p90": p90, "p99": p99,
                         "count": completed},
        "per_phase_s": {str(k): {"mean": _mean(v) if v else None, "count": len(v)}
                        for k, v in phase_durations.items()},
        "traffic_bps": {"peak_sent": max(sent_bps), "peak_received": max(received_bps),
                        "mean_sent": _mean(sent_bps)},
        "max_network_delay_s": run.max_network_delay_s,
        # receiving role -> discard reason -> deliveries
        "discards": {role: {outcome[len("discarded:"):]: n for outcome, n in counts.items()}
                     for role, counts in discarded.items()},
        # role -> its own discards: those the engine absorbed no role saw
        "violations": {role.value: sum(n for outcome, n in discarded.get(role.value, {}).items()
                                       if outcome != ABSORBED) for role in Role},
        "horizon_exceeded": run.horizon_exceeded,
        "sampling_interval_s": interval,
        "seed": run.scenario.seed,
    }
    return MetricsReport(tree, list(accumulate(steps[:buckets])), sent_bps, received_bps)


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


def emit_report(report: MetricsReport, format: str, out_dir: str | Path) -> list[Path]:
    """Write summary, per_phase, and timeseries tables; returns the paths."""
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    summary = {key: value for key, value in report.tree.items() if key != "per_phase_s"}
    per_phase = report.tree["per_phase_s"]
    interval = report["sampling_interval_s"]
    # a run with no sessions produces tables with headers and no data rows
    empty = report["sessions.started"] == 0
    n = 0 if empty else len(report.active_sessions)
    phase_rows = () if empty else tuple(range(1, PHASE_COUNT + 1))

    if format == "json-like":
        paths = [out / "summary.json", out / "per_phase.json", out / "timeseries.json"]
        paths[0].write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
        paths[1].write_text(json.dumps(
            {str(k): per_phase[str(k)] for k in phase_rows},
            indent=2, sort_keys=True) + "\n")
        series = {
            "t_s": [i * interval for i in range(n)],
            "active_sessions": report.active_sessions[:n],
            "traffic_sent_bps": report.traffic_sent_bps[:n],
            "traffic_received_bps": report.traffic_received_bps[:n],
        }
        paths[2].write_text(json.dumps(series, indent=2, sort_keys=True) + "\n")
        return paths

    if format != "csv":
        raise ScenarioValidationError("format", f"unknown report format {format!r}")
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


def emit_event_log(run: SimRun, out_dir: str | Path) -> Path:
    path = Path(out_dir) / "events.csv"
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w") as out:
        out.writelines(csv_lines(run.records))
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
    """Reload an emitted report (either format) as a metric tree."""
    d = Path(report_dir)
    if (d / "summary.json").exists():
        tree = _read_json(d / "summary.json")
        tree["per_phase_s"] = _read_json(d / "per_phase.json")
        return tree
    if not (d / "summary.csv").exists():
        raise ScenarioParseError(f"no summary.json or summary.csv under {d}")
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
    phases = _read_table(d / "per_phase.csv", str, lambda v: float(v) if v else None, int)
    tree["per_phase_s"] = {k: {"mean": mean, "count": count} for k, mean, count in phases}
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
        try:
            verdicts.append(_verdict(tree, exp))
        except (KeyError, ValueError, TypeError, AttributeError) as exc:
            metric = exp.get("metric", "?") if isinstance(exp, dict) else "?"
            detail = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ScenarioParseError(f"expectation {index} ({metric}): {detail}") from exc
    return verdicts


def load_expectations(path: str | Path) -> list[dict]:
    doc = _read_json(path)
    if not isinstance(doc.get("expectations"), list):
        raise ScenarioParseError(f"{path}: expected an object with an 'expectations' list")
    return doc["expectations"]
