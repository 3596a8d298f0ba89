"""The engine against its specification, the reference engine of
``reference_engine.py``: the same event log byte for byte, the same
horizon flag and the same final session states, on the pinned scenarios
and on drawn ones."""

import hashlib
import math
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from crossrealm import protocol as proto
from crossrealm import simnet
from crossrealm.harness import Scenario, load_scenario
from crossrealm.protocol import PHASES, TimeoutMode
from crossrealm.simnet import Stall, csv_lines
from reference_engine import reference_csv, reference_run

SCENARIOS = Path(__file__).parent.parent / "scenarios"

# case -> (scenario file, the timeout mode put in its place or None, sha256
# of the run's events.csv): the logs the tests and CI pin at full scale
PINNED = {
    "default": ("default.json", None,
                "de5ec44d4e69e2748e93dbe674261a5853d512ca4ce13561e50e71beb63dab06"),
    "ties": ("ties.json", None,
             "4f0ee0cfdfa59290baecff0e1286dbcde881b59f958954f7c3a4d2db68110ec0"),
    "suppressed": ("suppressed.json", None,
                   "5f400ca8392a0b0974e143417f0e798cc0ca89bfa772ee24a17bc6d073ce11ad"),
    "per-phase:60": ("default.json", TimeoutMode.per_phase(60),
                     "8725fbb6d766e886ae7eb88b7149cd95fcccdcec4e275140971de31859f5bbe7"),
    "localized-f:200": ("default.json", TimeoutMode.localized_f(200),
                        "25fdfe25df5260e3b899a7c13075cbc99cb15dc3e5a4c8a88800b82f61b9f331"),
}


@pytest.mark.parametrize("case", PINNED)
def test_the_reference_gives_each_pinned_log(case):
    path, mode, digest = PINNED[case]
    scenario = load_scenario(SCENARIOS / path)
    if mode is not None:
        scenario = replace(scenario, timeout_mode=mode)
    records = reference_run(scenario).records
    assert hashlib.sha256(reference_csv(records).encode()).hexdigest() == digest


def assert_runs_alike(scenario):
    run, reference = simnet.run(scenario), reference_run(scenario)
    assert "".join(csv_lines(run.records)) == reference_csv(reference.records)
    assert run.horizon_exceeded is reference.horizon_exceeded
    assert run.sessions == reference.sessions


# every delivery ties with a timer or another session's, or none does
_BASES = {"ties": load_scenario(SCENARIOS / "ties.json"),
          "spread": Scenario(principals=1, session_spread_s=30.0, seed=0)}
_MODES = st.sampled_from([
    TimeoutMode.none(), TimeoutMode.per_phase(5), TimeoutMode.per_phase(8),
    TimeoutMode.per_phase(10), TimeoutMode.per_phase(60), TimeoutMode.localized_f(40),
    TimeoutMode.localized_f(45), TimeoutMode.localized_f(200)])
# phase -> extra delay of the response stall by the phase's responder, often
# a multiple of the ties scenario's 5 s service time
_STALLS = st.dictionaries(st.integers(1, proto.PHASE_COUNT),
                          st.sampled_from([0.0, 5.0, 10.0, math.inf]) | st.floats(0.0, 300.0),
                          max_size=3)
# phase -> its request or response bytes in the base's place
_SIZES = st.dictionaries(st.integers(1, proto.PHASE_COUNT), st.integers(0, 10**6), max_size=3)
# a few hundred examples, and ten times as many under ``--hypothesis-profile
# oracle-x10`` (see conftest.py)
_EXAMPLES = 300 * (10 if settings.get_current_profile_name() == "oracle-x10" else 1)


@settings(max_examples=_EXAMPLES, deadline=None)
@given(base=st.sampled_from(sorted(_BASES)), principals=st.integers(1, 6), mode=_MODES,
       stalls=_STALLS, request_bytes=_SIZES, response_bytes=_SIZES,
       horizon=st.sampled_from([130.0, 160.0, 400.0, 900.0]),
       sessions=st.sampled_from([1, 2, "mean2"]), seed=st.integers(0, 2**32))
# a stall on a late phase, cut off by a short horizon
@example(base="spread", principals=3, mode=TimeoutMode.per_phase(60), stalls={12: 40.0},
         request_bytes={}, response_bytes={}, horizon=160.0, sessions=2, seed=5)
def test_the_engine_runs_as_the_reference(base, principals, mode, stalls, request_bytes,
                                          response_bytes, horizon, sessions, seed):
    base = _BASES[base]
    assert_runs_alike(replace(
        base, principals=principals, timeout_mode=mode, horizon_s=horizon,
        sessions_per_principal=sessions, seed=seed,
        phase_request_bytes={**base.phase_request_bytes, **request_bytes},
        phase_response_bytes={**base.phase_response_bytes, **response_bytes},
        stalls=tuple(Stall(PHASES[k - 1].destination, k, delay) for k, delay in stalls.items())))
