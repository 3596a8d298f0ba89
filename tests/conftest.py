"""Hypothesis profiles and shared fixtures for the suite.

The default profile is hypothesis's own. ``pytest
--hypothesis-profile=fail-fast`` reports the first failing example it
finds without shrinking it, where shrinking a stateful failure can take
minutes. ``pytest --hypothesis-profile=oracle-x10 tests/test_oracle.py
tests/test_reference_engine.py`` runs the role-machine oracle at ten times
the suite's 60 examples, and the engine against the reference engine at
ten times its 300.
"""

import pytest
from hypothesis import Phase, settings

from crossrealm import protocol, simnet
from crossrealm.protocol import Role, RoleState

settings.register_profile("fail-fast",
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.register_profile("oracle-x10", max_examples=600)


@pytest.fixture
def run_keeping_slots():
    """``simnet.run`` that also returns each role's state with the last slot
    of every session the role took part in, ended sessions' too: a run keeps
    only the slots of sessions in flight. The slots are the ones
    ``protocol.begin_phase`` and ``protocol.handle_message`` return, which
    the engine calls through the module and stores whenever one is given."""

    def run(scenario):
        slots = {role: {} for role in Role}

        def keeping(transition):
            def kept(state, *args):
                result = transition(state, *args)
                if result.slot is not None:  # args[-2] is the session or the message
                    slots[state.role][args[-2].session_id] = result.slot
                return result
            return kept

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(protocol, "begin_phase", keeping(protocol.begin_phase))
            patch.setattr(protocol, "handle_message", keeping(protocol.handle_message))
            done = simnet.run(scenario)
        return done, {role: RoleState(role, done.role_states[role].hosted_resources, slots[role])
                      for role in Role}

    return run
