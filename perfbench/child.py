"""One measured ``crossrealm run`` inside its own process.

Started by ``perfbench/run.py``, never imported by it. Usage:

    python3 child.py MODE SCENARIO SEED OUT_DIR RESULT_JSON SPAWN_NS

MODE is one of:

- ``timed``:  the full run, with timers only around the once-per-run
  public calls (vault build, ``simnet.run``, aggregate, the two emitters).
- ``traced``: the full run, with spans also around the per-message public
  functions of every layer, giving calls, total and self time per span.

SPAWN_NS is the parent's ``time.monotonic_ns()`` just before it started
this process, so set-up time includes interpreter start and imports.
Every PROBE_INTERVAL_S a timer signal runs a fixed probe loop and records
how long it took, which tells the parent how fast the host was running at
that moment. The result goes to RESULT_JSON; the CLI's output to stdout.
"""

from __future__ import annotations

import importlib
import json
import resource
import signal
import sys
import time
from pathlib import Path

PROBE_INTERVAL_S = 0.05
CLOCK = time.monotonic_ns  # the parent's clock too, so spawn time is comparable

# (span name, module, attribute): the once-per-run calls, wrapped in every mode.
ONCE_PER_RUN = (
    ("vault.build", "simnet", "build_default_vault"),
    ("simnet.run", "simnet", "run"),
    ("harness.aggregate", "harness", "aggregate"),
    ("harness.emit_report", "harness", "emit_report"),
    ("harness.emit_event_log", "harness", "emit_event_log"),
)

# The per-message public functions, wrapped only in the traced run. Each is
# looked up through its module at call time by the code that calls it, so
# replacing the module attribute (or the class attribute) reaches every call.
PER_MESSAGE = (
    ("protocol.handle_message", "protocol", "handle_message"),
    ("protocol.begin_phase", "protocol", "begin_phase"),
    ("protocol.advance_phase", "protocol", "advance_phase"),
    ("protocol.grant_access", "protocol", "grant_access"),
    ("protocol.localized_timeout_at_f", "protocol", "localized_timeout_at_f"),
    ("simnet.transmit_components", "simnet", "transmit_components"),
    ("keys.mint_session_keys", "keys", "mint_session_keys"),
    ("keys.verify_session_key", "keys", "verify_session_key"),
    ("vault.verify_membership", "vault", "Vault.verify_membership"),
    ("vault.find_member", "vault", "Vault.find_member"),
)


def probe() -> int:
    """Nanoseconds taken by a fixed pure-Python loop (about 0.2 ms)."""
    start = CLOCK()
    counts: dict[int, int] = {}
    for i in range(1500):
        counts[i & 63] = counts.get(i & 63, 0) + i
    return CLOCK() - start


class SpeedProbe:
    """(time after probe, probe ns) samples, one per timer tick."""

    def __init__(self):
        self.samples: list[tuple[int, int]] = []

    def sample(self, *_signal_args) -> None:
        took = probe()
        self.samples.append((CLOCK(), took))

    def start(self) -> None:
        self.sample()
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        self.sample()


class Spans:
    """Per-name calls, total and self time (self excludes wrapped callees).

    Also keeps the start and end of each name's latest call, which for the
    once-per-run calls is the call itself.
    """

    def __init__(self):
        # name -> [calls, total_ns, child_ns, true_results, last_start, last_end]
        self.stats: dict[str, list[int]] = {}
        self._stack: list[list[int]] = []

    def wrap(self, name: str, fn):
        stat = self.stats.setdefault(name, [0, 0, 0, 0, 0, 0])
        stack = self._stack

        def spanned(*args, **kwargs):
            children = [0]
            stack.append(children)
            t0 = CLOCK()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = CLOCK()
                elapsed = t1 - t0
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                stat[0] += 1
                stat[1] += elapsed
                stat[2] += children[0]
                stat[4] = t0
                stat[5] = t1
            if result is True:
                stat[3] += 1
            return result

        return spanned

    def report(self) -> dict:
        return {name: {"calls": c, "total_ns": t, "self_ns": t - ch, "true_results": tr,
                       "start_ns": s, "end_ns": e}
                for name, (c, t, ch, tr, s, e) in self.stats.items()}


def _install(spans: Spans, table) -> None:
    """Replace each public function with its spanned wrapper.

    A function that has vanished is an error, so that a refactor cannot
    silently empty a layer of the trace.
    """
    for name, module_name, attr in table:
        owner = importlib.import_module(f"crossrealm.{module_name}")
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        fn = getattr(owner, leaf, None) if owner is not None else None
        if not callable(fn):
            raise SystemExit(f"span {name}: crossrealm.{module_name}.{attr} is gone")
        setattr(owner, leaf, spans.wrap(name, fn))


def main(argv: list[str]) -> int:
    mode, scenario, seed, out_dir, result_path, spawn_ns = argv
    speed = SpeedProbe()
    speed.start()
    import crossrealm
    from crossrealm import cli

    spans = Spans()
    _install(spans, ONCE_PER_RUN)
    if mode == "traced":
        _install(spans, PER_MESSAGE)

    t0 = CLOCK()
    rc = cli.main(["run", "--scenario", scenario, "--seed", seed, "--out", out_dir])
    t1 = CLOCK()
    speed.stop()
    if not spans.stats["vault.build"][0]:
        raise SystemExit("simnet.build_default_vault was never called")

    Path(result_path).write_text(json.dumps({
        "rc": rc,
        "package": crossrealm.__file__,
        "spawn_ns": int(spawn_ns),
        "main_ns": [t0, t1],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "probes": speed.samples,
        "spans": spans.report(),
    }))
    return rc


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
