"""Hypothesis profiles for the suite.

The default profile is hypothesis's own. ``pytest
--hypothesis-profile=fail-fast`` reports the first failing example it
finds without shrinking it, where shrinking a stateful failure can take
minutes.
"""

from hypothesis import Phase, settings

settings.register_profile("fail-fast",
                          phases=[phase for phase in Phase if phase is not Phase.shrink])
