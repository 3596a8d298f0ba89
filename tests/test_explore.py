"""The exhaustive explorer of ``explore.py``, on the cases the suite can
afford: no injection, and one field swap or replay, each about 4 s at
most. ``python tests/explore.py --injections 1 --kinds all`` explores
every kind of injection."""

import functools

import pytest

from crossrealm import protocol as proto
from explore import explore

CASES = {"honest": (0, ()), "one-swap-or-replay": (1, ("swap", "replay"))}


@functools.lru_cache(maxsize=None)
def explored(case: str):
    return explore(*CASES[case])


@pytest.mark.parametrize("case", CASES)
@pytest.mark.parametrize("invariant", ["raises", "unawaited", "grants"])
def test_every_explored_state_keeps_the_invariant(case, invariant):
    # no transition raises, a role takes only what its session awaits, and a
    # cloud grants only what it hosts, on every path to every state
    result = explored(case)
    assert invariant not in result.failures, result.report(invariant)


def test_an_honest_network_keeps_each_sessions_key_sets():
    result = explored("honest")
    assert "keysets" not in result.failures, result.report("keysets")


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="ROADMAP item 2, close the impostor hole: a tenant that claims "
                          "another tenant of its sub-domain gets that tenant's session keys")
def test_one_swapped_field_keeps_each_sessions_key_sets():
    result = explored("one-swap-or-replay")
    assert "keysets" not in result.failures, result.report("keysets")


def test_the_search_reaches_every_end():
    # each session can complete or be dropped by any phase's timer or F's
    # watchdog; a swapped claim or key set also drops it at phase 7 or at a
    # cloud's report
    timeouts = {("dropped", f"phase-timeout({k})") for k in range(1, proto.PHASE_COUNT + 1)}
    honest = {("completed", None), ("dropped", "localized-timeout"), *timeouts}
    assert explored("honest").ends == honest
    assert explored("one-swap-or-replay").ends == honest | {
        ("dropped", "invalid-credentials"), ("dropped", "access-refused")}
