"""Host-time benchmark of ``crossrealm run``, end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-1k --seed 7 --seconds 10 --trace 0

Each workload is a scenario file, written from ``scenarios/default.json``
plus the workload's overrides, and run through the user path
``crossrealm.cli.main(["run", ...])`` in a child process of its own, one
at a time. A run makes full timed runs until ``--seconds`` have passed (at
least two), and with ``--trace 1`` one more run with spans around the
per-message public functions of every layer. Times are scaled to a reference host speed measured by a probe in
each child; the unscaled medians are printed on the ``wall:`` line. Every
run's event log is checked: its sha256 at the reference seed,
the expected outcome of every session at any seed, byte-identical logs
across the runs of one seed, and on ``paper-1k`` the acceptance
expectations. The last line of stdout is one JSON object with the
end-to-end metrics (``--trace 0``) or the per-layer metrics (``--trace 1``);
the exit code is non-zero when any check fails.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
REFERENCE_SEED = 7
MIN_TIMED_RUNS = 2
DEADLINE_S = 170.0  # the whole benchmark run must end within 180 s
# Reported times are scaled to a host on which child.probe() takes this long:
# about the median probe time in the children of the baseline runs on a 2-vCPU
# Xeon VM (197-210 us per workload), so scaled times are close to its wall times.
REFERENCE_PROBE_NS = 200_000

# Functions every workload must reach; a traced run that never calls one fails.
ALWAYS_CALLED = (
    "vault.build", "simnet.run", "harness.aggregate", "harness.emit_report",
    "harness.emit_event_log", "protocol.handle_message", "protocol.begin_phase",
    "protocol.advance_phase", "protocol.grant_access", "simnet.transmit_components",
    "keys.mint_session_keys", "keys.verify_session_key", "vault.verify_membership",
    "vault.find_member",
)

# Why each workload was chosen is recorded with its entry in BENCHMARK.json.
WORKLOADS = {
    "paper-1k": {
        "overrides": {},
        "final_outcome": "completed",
        "discards_per_session": 0,
        "also_called": (),
        "reference_sha256": "de5ec44d4e69e2748e93dbe674261a5853d512ca4ce13561e50e71beb63dab06",
        "expectations": "scenarios/expectations.json",
    },
    "dense-3k": {
        "overrides": {"principals": 3000},
        "final_outcome": "completed",
        "discards_per_session": 0,
        "also_called": (),
        "reference_sha256": "03a5435dd111881cb7366baf8e17777b5bd1dc337e30c84d72fff5993efb1091",
        "expectations": None,
    },
    "faults-1k": {
        "overrides": {
            "timeout_mode": "localized-f:200",
            "stalls": [{"role": "CloudB", "phase_index": 10, "extra_delay_s": 250.0}],
            "horizon_s": 1000.0,
        },
        "final_outcome": "dropped:localized-timeout",
        "discards_per_session": 1,
        "also_called": ("protocol.localized_timeout_at_f",),
        "reference_sha256": "609cadb34138eaa4cad16a58bf85b80026139e2a24ba57e96377c7b9b53bcbdd",
        "expectations": None,
    },
}

# Expectation whose target is the reference seed's session draw (2033 sessions
# against ">= 2000"); other seeds draw about 2000 +/- 26 and may miss it.
SEED_BOUND_EXPECTATIONS = {"session-count"}


class BenchError(Exception):
    """A failed child, a failed check or a missing program: no result is printed."""


def environment(root: Path, runs: int, seed: int) -> dict:
    """What the figures were measured on; the checkout need not be a git repository."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    commit = None
    head = root / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            ref_file = root / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else None
        else:
            commit = ref
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy_version, "commit": commit, "runs": runs, "seed": seed}


class Bench:
    def __init__(self, root: Path, workload: str, seed: int, deadline: float):
        self.root = root
        self.spec = WORKLOADS[workload]
        self.seed = seed
        self.deadline = deadline
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.scenario = self.work / "scenario.json"
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"), OMP_NUM_THREADS="1",
                        OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
        # Children load cached bytecode, as an installed package would, whatever
        # the caller's environment says; the uncounted first child writes it.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        self.digest: str | None = None
        self.sessions = 0
        self.failed = 0
        self.log_stats: dict = {}

    def write_scenario(self) -> None:
        doc = json.loads((self.root / "scenarios" / "default.json").read_text())
        doc.update(self.spec["overrides"])
        self.work.mkdir(parents=True, exist_ok=True)
        self.scenario.write_text(json.dumps(doc, indent=2) + "\n")

    def remaining(self) -> float:
        left = self.deadline - time.monotonic()
        if left <= 0:
            raise BenchError("out of time before the next child")
        return left

    def warm_up(self) -> None:
        """Import the package once, uncounted, so the timed children find its bytecode."""
        try:
            subprocess.run([sys.executable, "-c", "import crossrealm.cli"], cwd=self.root,
                           env=self.env, check=True, timeout=self.remaining())
        except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as exc:
            raise BenchError(f"warm-up import failed: {exc}")

    def child(self, mode: str) -> dict:
        """Run one child to completion and return its result record."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        result = self.work / "result.json"
        result.unlink(missing_ok=True)
        log = self.work / "child.log"
        remaining = self.remaining()
        spawn_ns = time.monotonic_ns()
        with open(log, "w") as log_file:
            proc = subprocess.Popen(
                [sys.executable, str(HERE / "child.py"), mode, str(self.scenario),
                 str(self.seed), str(out), str(result), str(spawn_ns)],
                cwd=self.root, env=self.env, stdout=log_file, stderr=subprocess.STDOUT)
            try:
                rc = proc.wait(timeout=remaining)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
                raise BenchError(f"{mode} child overran the {DEADLINE_S:.0f} s budget")
        if rc != 0 or not result.is_file():
            tail = log.read_text()[-2000:]
            raise BenchError(f"{mode} child exited with {rc}:\n{tail}")
        record = json.loads(result.read_text())
        package = Path(record["package"]).resolve()
        if self.root / "src" not in package.parents:
            raise BenchError(f"child imported crossrealm from {package}, not this checkout")
        self.check_outputs(out)
        return record

    def check_outputs(self, out: Path) -> None:
        """Gate one full run's event log; the first log of the seed is parsed in full."""
        events = out / "events.csv"
        digest = hashlib.sha256(events.read_bytes()).hexdigest()
        if self.digest is None:
            self.digest = digest
            if self.seed == REFERENCE_SEED and digest != self.spec["reference_sha256"]:
                raise BenchError(f"events.csv sha256 {digest} differs from the reference "
                                 f"{self.spec['reference_sha256']} at seed {REFERENCE_SEED}")
            self.check_log(events)
            if self.spec["expectations"]:
                self.check_expectations(out)
        elif digest != self.digest:
            raise BenchError(f"two runs of seed {self.seed} wrote different events.csv "
                             f"({self.digest} then {digest})")

    def check_log(self, events: Path) -> None:
        """Every session must end as the workload expects, with its discards."""
        final: dict[str, str] = {}
        discards: dict[str, int] = {}
        records = delivers = discarded = 0
        with open(events) as f:
            next(f)
            for line in f:
                records += 1
                _, _, kind, _, _, sid, _, _, outcome = line.rstrip("\n").split(",")
                if kind == "deliver":
                    delivers += 1
                    if outcome.startswith("discarded:"):
                        discarded += 1
                        discards[sid] = discards.get(sid, 0) + 1
                elif kind == "session-start":
                    final[sid] = "in-progress"
                elif kind in ("session-complete", "session-drop"):
                    final[sid] = outcome
        want = self.spec["final_outcome"]
        per_session = self.spec["discards_per_session"]
        self.sessions = len(final)
        self.failed = sum(1 for sid, outcome in final.items()
                          if outcome != want or discards.get(sid, 0) != per_session)
        if self.sessions == 0:
            raise BenchError("the run started no sessions")
        self.log_stats = {"records": records, "delivers": delivers, "discarded": discarded}

    def check_expectations(self, out: Path) -> None:
        sys.path.insert(0, str(self.root / "src"))
        from crossrealm import harness
        tree = harness.load_report(out)
        expectations = harness.load_expectations(self.root / self.spec["expectations"])
        verdicts = harness.check_acceptance(tree, expectations)
        met = sum(v.passed for v in verdicts)
        print(f"acceptance: {met}/{len(verdicts)} expectations met")
        missed = [v for v in verdicts if not v.passed
                  and (self.seed == REFERENCE_SEED or v.name not in SEED_BOUND_EXPECTATIONS)]
        if missed:
            raise BenchError("expectations missed: " +
                             "; ".join(f"{v.name} ({v.detail})" for v in missed))


def reference_seconds(probes: list, start: int, end: int) -> float:
    """Seconds that [start, end] would take on a host where the probe takes REFERENCE_PROBE_NS.

    Between two probe samples the host's speed is the mean of their probe
    times; the probes' own time is left out. Before the first sample (the
    interpreter starting) it is the first sample's.
    """
    first_at, first_ns = probes[0]
    total = max(0, min(end, first_at) - start) * REFERENCE_PROBE_NS / first_ns
    for (t0, p0), (t1, p1) in zip(probes, probes[1:]):
        lo, hi = max(start, t0), min(end, t1 - p1)
        if hi > lo:
            total += (hi - lo) * 2 * REFERENCE_PROBE_NS / (p0 + p1)
    return total / 1e9


def timings(record: dict) -> dict:
    """Set-up, total and simulation time of one child, as {"wall": s, "ref": s}."""
    spans, probes = record["spans"], record["probes"]
    vault, run = spans["vault.build"], spans["simnet.run"]

    def interval(start: int, end: int) -> dict:
        return {"wall": (end - start) / 1e9, "ref": reference_seconds(probes, start, end)}

    whole = interval(run["start_ns"], run["end_ns"])
    build = interval(vault["start_ns"], vault["end_ns"])
    return {"setup": interval(record["spawn_ns"], vault["end_ns"]),
            "total": interval(*record["main_ns"]),
            "sim": {k: whole[k] - build[k] for k in whole}}


def run_benchmark(root: Path, workload: str, seed: int, seconds: float, trace: bool,
                  started: float) -> tuple[dict, dict]:
    bench = Bench(root, workload, seed, started + DEADLINE_S)
    bench.write_scenario()
    try:
        bench.warm_up()
        timed = []
        measure_from = time.monotonic()
        while len(timed) < MIN_TIMED_RUNS or time.monotonic() - measure_from < seconds:
            timed.append(bench.child("timed"))
        traced = bench.child("traced") if trace else None
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass

    records = bench.log_stats["records"]
    runs = [timings(r) for r in timed]
    setup = [t["setup"] for t in runs]

    def median(samples, clock="ref"):
        return statistics.median(s[clock] for s in samples)

    sim = [t["sim"] for t in runs]
    end_to_end = {
        "total_s": (median(t["total"] for t in runs), "s"),
        "setup_s": (median(setup), "s"),
        "sim_s": (median(sim), "s"),
        "us_per_record": (median(sim) / records * 1e6, "us"),
        "peak_rss_mb": (statistics.median(r["maxrss_kb"] / 1024 for r in timed), "MB"),
    }
    summary = {
        "sessions": bench.sessions,
        "failed": bench.failed,
        "wall": {"total_s": median((t["total"] for t in runs), "wall"),
                 "setup_s": median(setup, "wall"), "sim_s": median(sim, "wall"),
                 "probe_us": statistics.median(p for r in timed for _, p in r["probes"]) / 1e3},
        "env": environment(root, len(timed), seed),
    }
    if traced is None:
        return end_to_end, summary

    spans = traced["spans"]
    required = ALWAYS_CALLED + WORKLOADS[workload]["also_called"]
    uncalled = [name for name in required if spans[name]["calls"] == 0]
    if uncalled:
        raise BenchError("traced run never called " + ", ".join(uncalled))

    traced_times = timings(traced)
    # Span times are wall times; scale them by the traced run's mean host speed.
    scale = traced_times["total"]["ref"] / traced_times["total"]["wall"] / 1e9

    def total(name):
        return spans[name]["total_ns"] * scale

    def self_s(name):
        return spans[name]["self_ns"] * scale

    def calls(name):
        return spans[name]["calls"]

    per_layer = {
        "cli.main.s": (traced_times["total"]["ref"], "s"),
        "protocol.handle_message.calls": (calls("protocol.handle_message"), "count"),
        "protocol.handle_message.self_s": (self_s("protocol.handle_message"), "s"),
        "protocol.handle_message.us_per_call": (
            total("protocol.handle_message") / calls("protocol.handle_message") * 1e6, "us"),
        "protocol.begin_phase.calls": (calls("protocol.begin_phase"), "count"),
        "protocol.begin_phase.self_s": (self_s("protocol.begin_phase"), "s"),
        "protocol.begin_phase.us_per_call": (
            total("protocol.begin_phase") / calls("protocol.begin_phase") * 1e6, "us"),
        "protocol.advance_phase.calls": (calls("protocol.advance_phase"), "count"),
        "protocol.advance_phase.s": (total("protocol.advance_phase"), "s"),
        "protocol.grant_access.calls": (calls("protocol.grant_access"), "count"),
        "protocol.grant_access.granted": (spans["protocol.grant_access"]["true_results"],
                                          "count"),
        "protocol.localized_timeout_at_f.calls": (
            calls("protocol.localized_timeout_at_f"), "count"),
        "simnet.transmit_components.calls": (calls("simnet.transmit_components"), "count"),
        "simnet.transmit_components.s": (total("simnet.transmit_components"), "s"),
        "simnet.loop.self_s": (self_s("simnet.run"), "s"),
        "simnet.loop.self_us_per_record": (self_s("simnet.run") / records * 1e6, "us"),
        "simnet.records": (records, "count"),
        "simnet.deliveries.discarded": (bench.log_stats["discarded"], "count"),
        "simnet.deliveries.useful_ratio": (
            1 - bench.log_stats["discarded"] / bench.log_stats["delivers"], "ratio"),
        "harness.aggregate.s": (total("harness.aggregate"), "s"),
        "harness.emit_report.s": (total("harness.emit_report"), "s"),
        "harness.emit_event_log.s": (total("harness.emit_event_log"), "s"),
        "keys.mint_session_keys.calls": (calls("keys.mint_session_keys"), "count"),
        "keys.mint_session_keys.s": (total("keys.mint_session_keys"), "s"),
        "keys.verify_session_key.calls": (calls("keys.verify_session_key"), "count"),
        "keys.verify_session_key.s": (total("keys.verify_session_key"), "s"),
        "vault.build.s": (total("vault.build"), "s"),
        "vault.verify_membership.calls": (calls("vault.verify_membership"), "count"),
        "vault.verify_membership.s": (total("vault.verify_membership"), "s"),
        "vault.find_member.calls": (calls("vault.find_member"), "count"),
        "vault.find_member.s": (total("vault.find_member"), "s"),
        "host.probe_us": (statistics.median(p for _, p in traced["probes"]) / 1e3, "us"),
        "trace.overhead_ratio": (traced_times["sim"]["ref"] / end_to_end["sim_s"][0], "ratio"),
    }
    return per_layer, summary


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    started = time.monotonic()
    root = Path.cwd().resolve()
    for needed in ("src/crossrealm/cli.py", "scenarios/default.json"):
        if not (root / needed).is_file():
            print(f"error: {needed} not found; run from the root of a crossrealm checkout",
                  file=sys.stderr)
            return 2
    try:
        metrics, summary = run_benchmark(root, args.workload, args.seed, args.seconds,
                                         bool(args.trace), started)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    print(f"workload: {args.workload}  seed: {args.seed}  sessions: {summary['sessions']}")
    print(f"env: {json.dumps(summary['env'], sort_keys=True)}")
    print(f"wall: {json.dumps(summary['wall'], sort_keys=True)}")
    for name, (value, unit) in metrics.items():
        print(f"{name}: {value:.6g} {unit}")
    failed = summary["failed"]
    print(f"sessions_failed_share: {failed / summary['sessions']:.6g} 1")
    runs = summary["env"]["runs"]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": summary["sessions"] * runs,
        "failed": failed * runs,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
