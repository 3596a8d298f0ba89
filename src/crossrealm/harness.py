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
from collections import Counter
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from . import simnet
from .errors import (
    InvalidInput,
    ScenarioParseError,
    ScenarioValidationError,
    UnknownMetric,
)
from .protocol import PHASE_COUNT, Role, TimeoutMode, protocol_table
from .simnet import ConnectionModel, SimRun, Stall, csv_lines

DEFAULT_SEED = 7


@dataclass(frozen=True)
class Scenario:
    """One experiment configuration; defaults are the full-scale setup."""

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
    propagation_delay_s: float = 0.0005
    link_counts: Mapping[tuple[str, str], int] | None = None
    phase_request_bytes: Mapping[int, int] | None = None
    phase_response_bytes: Mapping[int, int] | None = None


def _read_json(path: str | Path) -> object:
    """The JSON document in a file; a blank file reads as an empty object."""
    text = Path(path).read_text()
    try:
        return json.loads(text) if text.strip() else {}
    except ValueError as exc:  # bad syntax, or an integer literal too long to convert
        where = f"line {exc.lineno}: {exc.msg}" if isinstance(exc, json.JSONDecodeError) else exc
        raise ScenarioParseError(f"{path}: {where}") from exc


def load_scenario(path: str | Path) -> Scenario:
    """Parse and validate a scenario file; an empty document is the default."""
    return scenario_from_dict(_read_json(path))


# -- JSON value decoders: each checks its value's shape and range and raises
# ValueError, TypeError, KeyError or InvalidInput on a bad one, which
# scenario_from_dict reports under the field.

def _at_least(value, low):
    if low is not None and value < low:
        raise ValueError(f"must be at least {low}")
    return value


def _whole(value: object, low: int | None = None) -> int:
    """A count: a JSON number with no fractional part (3 or 3.0), at least low."""
    if isinstance(value, float) and value.is_integer():
        value = int(value)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{value!r} is not a whole number")
    return _at_least(value, low)


def _number(value: object, low: float | None = None) -> float:
    """A finite number, at least low: JSON's NaN and Infinity are refused, and
    so is an integer too large for a float."""
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not abs(value) <= sys.float_info.max):
        raise ValueError(f"{value!r} is not a finite number")
    return _at_least(float(value), low)


def _positive(value: object) -> float:
    number = _number(value)
    if number <= 0:
        raise ValueError("must be positive")
    return number


def _string(value: object) -> str:
    if not isinstance(value, str):
        raise ValueError(f"{value!r} is not a string")
    return value


def _object(value: object) -> dict:
    if not isinstance(value, dict):
        raise ValueError(f"{value!r} is not an object")
    return value


def _pair(value: object, decode) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise ValueError(f"{value!r} is not a list of two")
    return (decode(value[0]), decode(value[1]))


def _resources(value: object) -> tuple[str, str]:
    pair = _pair(value, _string)
    if pair[0] == pair[1]:
        raise ValueError("the two resources need distinct names")
    return pair


def _window(value: object) -> tuple[float, float]:
    low, high = _pair(value, lambda v: _number(v, 0))
    if high < low:
        raise ValueError("needs low <= high")
    return low, high


def _stall(doc: dict) -> Stall:
    """The stall checks its own range; an infinite delay suppresses the response."""
    role, phase_index, delay = Role(doc["role"]), _whole(doc["phase_index"]), doc["extra_delay_s"]
    return Stall(role, phase_index, delay if delay == math.inf else _number(delay))


def _topology(value: object) -> dict:
    """The topology object decodes to two Scenario fields."""
    decoders = {"propagation_delay_s": _number,
                "link_counts": lambda v: {(_string(a), _string(b)): _whole(n) for a, b, n in v}}
    topo = _object(value)
    unknown = set(topo) - set(decoders)
    if unknown:
        raise ValueError(f"unknown key {sorted(unknown)[0]!r}")
    kwargs = {key: decoders[key](v) for key, v in topo.items()}
    simnet.check_topology(**kwargs)
    return kwargs


def _phase_bytes(value: object) -> dict[int, int]:
    """Byte sizes keyed by phase index 1..13; a size is timed as a float, so it must fit one."""
    sizes = {int(k): _whole(v, 0) for k, v in _object(value).items()}
    for index, size in sizes.items():
        if not 1 <= index <= PHASE_COUNT:
            raise ValueError(f"phase index must be 1..{PHASE_COUNT}")
        _number(size)
    return sizes


def _same(value):
    return value


# scenario document field -> (decoder of its JSON value, encoder of the
# Scenario field), in the order scenario_to_dict writes them. "topology"
# decodes to two Scenario fields, so scenario_to_dict encodes it itself.
_FIELDS = {
    "principals": (lambda v: _whole(v, 1), _same),
    "sessions_per_principal": (lambda v: v if v == "mean2" else _whole(v, 1), _same),
    "timeout_mode": (lambda v: TimeoutMode.parse(_string(v)), TimeoutMode.encode),
    "connection": (lambda v: ConnectionModel(**{k: _number(x) for k, x in _object(v).items()}),
                   asdict),
    "resources": (_resources, list),
    "network_start_offset_s": (lambda v: _number(v, 0), _same),
    "app_start_offset_s": (_window, list),
    "session_spread_s": (lambda v: _number(v, 0), _same),
    "horizon_s": (_number, _same),
    "sampling_interval_s": (_positive, _same),
    "seed": (_whole, _same),
    "stalls": (lambda v: tuple(_stall(s) for s in v),
               lambda stalls: [{**asdict(s), "role": s.role.value} for s in stalls]),
    "phase_request_bytes": (_phase_bytes, lambda sizes: {
        str(s.index): s.request_bytes for s in protocol_table(sizes)}),
    "phase_response_bytes": (_phase_bytes, lambda sizes: {
        str(s.index): s.response_bytes for s in protocol_table(None, sizes)}),
    "topology": (_topology, None),
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
            decoded = _FIELDS[name][0](value)
        except (ValueError, TypeError, KeyError, InvalidInput) as exc:
            detail = f"missing {exc}" if isinstance(exc, KeyError) else str(exc)
            raise ScenarioValidationError(name, detail) from exc
        kwargs.update(decoded if name == "topology" else {name: decoded})
    scenario = Scenario(**kwargs)
    if scenario.horizon_s <= scenario.network_start_offset_s:
        raise ScenarioValidationError("horizon_s", "must exceed the network start offset")
    return scenario


def scenario_to_dict(scenario: Scenario) -> dict:
    """Full explicit form, including the per-phase byte assignment."""
    doc = {name: encode(getattr(scenario, name))
           for name, (_, encode) in _FIELDS.items() if encode is not None}
    doc["topology"] = {"propagation_delay_s": scenario.propagation_delay_s}
    if scenario.link_counts:
        doc["topology"]["link_counts"] = [[a, b, n] for (a, b), n in scenario.link_counts.items()]
    return doc


def save_scenario(scenario: Scenario, path: str | Path) -> None:
    Path(path).write_text(json.dumps(scenario_to_dict(scenario), indent=2) + "\n")


# -- metrics ------------------------------------------------------------------

@dataclass
class MetricsReport:
    """Aggregate measurements of one run."""

    sessions_started: int
    sessions_completed: int
    sessions_dropped: int
    dropped_by_reason: dict[str, int]
    in_flight_at_horizon: int
    end_to_end_mean_s: float | None
    end_to_end_p50_s: float | None
    end_to_end_p90_s: float | None
    end_to_end_p99_s: float | None
    end_to_end_count: int
    per_phase_mean_s: dict[int, float]
    per_phase_count: dict[int, int]
    active_sessions: list[int]
    traffic_sent_bps: list[float]
    traffic_received_bps: list[float]
    peak_traffic_sent_bps: float
    peak_traffic_received_bps: float
    mean_traffic_sent_bps: float
    max_network_delay_s: float
    horizon_exceeded: bool
    sampling_interval_s: float
    seed: int
    discards: dict[str, dict[str, int]]  # receiving role -> discard reason -> deliveries
    violations: dict[str, int]  # role -> discards it counted itself

    def metric_tree(self) -> dict:
        """Nested scalar view used by summaries and acceptance checks."""
        return {
            "sessions": {
                "started": self.sessions_started,
                "completed": self.sessions_completed,
                "dropped": self.sessions_dropped,
                "in_flight_at_horizon": self.in_flight_at_horizon,
                "dropped_by_reason": dict(sorted(self.dropped_by_reason.items())),
            },
            "end_to_end_s": {
                "mean": self.end_to_end_mean_s,
                "p50": self.end_to_end_p50_s,
                "p90": self.end_to_end_p90_s,
                "p99": self.end_to_end_p99_s,
                "count": self.end_to_end_count,
            },
            "per_phase_s": {
                str(k): {"mean": self.per_phase_mean_s.get(k),
                         "count": self.per_phase_count.get(k, 0)}
                for k in range(1, PHASE_COUNT + 1)
            },
            "traffic_bps": {
                "peak_sent": self.peak_traffic_sent_bps,
                "peak_received": self.peak_traffic_received_bps,
                "mean_sent": self.mean_traffic_sent_bps,
            },
            "max_network_delay_s": self.max_network_delay_s,
            "discards": {role: dict(sorted(reasons.items()))
                         for role, reasons in sorted(self.discards.items())},
            "violations": dict(sorted(self.violations.items())),
            "horizon_exceeded": self.horizon_exceeded,
            "sampling_interval_s": self.sampling_interval_s,
            "seed": self.seed,
        }


def aggregate(run: SimRun, scenario: Scenario) -> MetricsReport:
    """Fold an event log and final session states into a MetricsReport.

    The fold is one pass that builds no container per record, so it sets
    off no garbage collection over the finished run's objects: a phase's
    opening send is kept in that phase's dict under the record's own
    session id string, and discards are counted under the record's outcome.
    """
    interval = scenario.sampling_interval_s
    buckets = int(math.floor(run.horizon_s / interval)) + 1
    last = buckets - 1
    sent = [0.0] * buckets
    received = [0.0] * buckets
    started = 0
    # phase index -> session id -> time of the phase's first send
    opened: dict[int, dict[str, float]] = {k: {} for k in range(1, PHASE_COUNT + 1)}
    phase_durations: dict[int, list[float]] = {k: [] for k in range(1, PHASE_COUNT + 1)}
    discarded: dict[str, dict[str, int]] = {}  # receiving role -> outcome -> deliveries

    for time_s, _, kind, _, destination, session_id, phase, size, outcome in run.records:
        b = int(time_s / interval)
        if b > last:
            b = last
        if kind == "send":
            sent[b] += size * 8.0
            # request legs open a phase; remember the earliest send
            opened[phase].setdefault(session_id, time_s)
        elif kind == "deliver":
            received[b] += size * 8.0
            if outcome == "phase-complete":
                t0 = opened[phase].get(session_id)
                if t0 is not None:
                    phase_durations[phase].append(time_s - t0)
            elif outcome.startswith("discarded:"):
                counts = discarded.get(destination)
                if counts is None:
                    counts = discarded[destination] = {}
                counts[outcome] = counts.get(outcome, 0) + 1
        elif kind == "session-start":
            started += 1
    discards = {role: {outcome[len("discarded:"):]: n for outcome, n in counts.items()}
                for role, counts in discarded.items()}

    completed = run.completed()
    dropped = run.dropped()
    reasons = dict(Counter(str(s.drop_reason) for s in dropped))

    durations = np.array([s.ended_at - s.started_at for s in completed])
    if durations.size:
        e2e = [float(durations.mean())] + [
            float(np.percentile(durations, q)) for q in (50, 90, 99)]
    else:
        e2e = [None, None, None, None]

    active = np.zeros(buckets, dtype=int)
    for s in run.sessions.values():
        a = int(s.started_at / interval)
        end = s.ended_at if s.ended_at is not None else run.horizon_s
        b = min(int(end / interval), buckets - 1)
        active[a:b + 1] += 1

    sent_bps = np.array(sent) / interval
    received_bps = np.array(received) / interval
    return MetricsReport(
        sessions_started=started,
        sessions_completed=len(completed),
        sessions_dropped=len(dropped),
        dropped_by_reason=reasons,
        in_flight_at_horizon=started - len(completed) - len(dropped),
        end_to_end_mean_s=e2e[0],
        end_to_end_p50_s=e2e[1],
        end_to_end_p90_s=e2e[2],
        end_to_end_p99_s=e2e[3],
        end_to_end_count=int(durations.size),
        per_phase_mean_s={k: float(np.mean(v)) for k, v in phase_durations.items() if v},
        per_phase_count={k: len(v) for k, v in phase_durations.items()},
        active_sessions=[int(x) for x in active],
        traffic_sent_bps=[float(x) for x in sent_bps],
        traffic_received_bps=[float(x) for x in received_bps],
        peak_traffic_sent_bps=float(sent_bps.max()) if buckets else 0.0,
        peak_traffic_received_bps=float(received_bps.max()) if buckets else 0.0,
        mean_traffic_sent_bps=float(sent_bps.mean()) if buckets else 0.0,
        max_network_delay_s=run.max_network_delay_s,
        horizon_exceeded=run.horizon_exceeded,
        sampling_interval_s=interval,
        seed=run.seed,
        discards=discards,
        violations={role.value: state.violations for role, state in run.role_states.items()},
    )


def run_experiment(scenario: Scenario) -> MetricsReport:
    """Drive the simulator once and aggregate its event log."""
    return aggregate(simnet.run(scenario), scenario)


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
    tree = report.metric_tree()
    per_phase = tree.pop("per_phase_s")
    interval = report.sampling_interval_s
    # a run with no sessions produces tables with headers and no data rows
    empty = report.sessions_started == 0
    n = 0 if empty else len(report.active_sessions)
    phase_rows = () if empty else tuple(range(1, PHASE_COUNT + 1))

    if format == "json-like":
        paths = [out / "summary.json", out / "per_phase.json", out / "timeseries.json"]
        paths[0].write_text(json.dumps(tree, indent=2, sort_keys=True) + "\n")
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
    lines += [f"{k},{_fmt(v)}" for k, v in sorted(_flatten(tree))]
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


def load_report(report_dir: str | Path) -> dict:
    """Reload an emitted report (either format) as a metric tree."""
    d = Path(report_dir)
    if (d / "summary.json").exists():
        tree = json.loads((d / "summary.json").read_text())
        tree["per_phase_s"] = json.loads((d / "per_phase.json").read_text())
        return tree
    if not (d / "summary.csv").exists():
        raise ScenarioParseError(f"no summary.json or summary.csv under {d}")
    tree: dict = {}
    for line in (d / "summary.csv").read_text().splitlines()[1:]:
        name, _, raw = line.partition(",")
        node = tree
        parts = name.split(".")
        for part in parts[:-1]:
            node = node.setdefault(part, {})
        if raw == "":
            value: object = None
        elif raw in ("true", "false"):
            value = raw == "true"
        else:
            value = float(raw) if ("." in raw or "e" in raw or "inf" in raw) else int(raw)
        node[parts[-1]] = value
    per_phase: dict = {}
    for line in (d / "per_phase.csv").read_text().splitlines()[1:]:
        k, mean, count = line.split(",")
        per_phase[k] = {"mean": float(mean) if mean else None, "count": int(count)}
    tree["per_phase_s"] = per_phase
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
    tree = report.metric_tree() if isinstance(report, MetricsReport) else report
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
    if not isinstance(doc, dict) or not isinstance(doc.get("expectations"), list):
        raise ScenarioParseError(f"{path}: expected an object with an 'expectations' list")
    return doc["expectations"]
