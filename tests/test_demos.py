"""The demo scripts run to completion against the current package."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*_*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_runs(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


# demo -> sha256 of its stdout. Every demo is deterministic, and demo 03 prints
# values read from the roles' slots (key generation, grant decisions) that no
# event-log hash covers.
DEMO_STDOUT_SHA256 = {
    "01_hierarchical_keys.py": "f5da0726c109676fb22961d96c5ccffa7826e73b514c9037b89c800485543aaf",
    "02_vault_and_membership.py":
        "44a185f18ffab42a2108564bd922fec63842d1a6437ed82e60f9b9395ac66fcf",
    "03_single_session_trace.py":
        "3c311ddfa0c8b7dd4ae3e989a1cd4f5c48eb3786b39cb81819e582216eddfc10",
    "04_timeout_experiments.py":
        "eb8b6fda41c4cfce51be3a9c5c10c5dc28a965cec0c17b3eb638fbec5cd67737",
    "05_full_scale_run.py": "414efd4b1a1451bb9ddb06f2962e256ac6daee9ce028757eafeb15938dce7862",
}


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_output_is_pinned(demo):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout).hexdigest() == DEMO_STDOUT_SHA256[demo]
