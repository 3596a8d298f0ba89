"""Hypothesis profiles for the suite.

The default profile is hypothesis's own. ``pytest
--hypothesis-profile=fail-fast`` reports the first failing example it
finds without shrinking it, where shrinking a stateful failure can take
minutes. ``pytest --hypothesis-profile=oracle-x10 tests/test_oracle.py``
runs the role-machine oracle at ten times the suite's 60 examples.
"""

from hypothesis import Phase, settings

settings.register_profile("fail-fast",
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
settings.register_profile("oracle-x10", max_examples=600)
