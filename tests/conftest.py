"""Hypothesis profiles.

``ci`` draws the same examples on every run, so a red build replays on
any machine: ``pytest --hypothesis-profile=ci``.  Without the option,
the default profile explores at random.
"""

from hypothesis import settings

settings.register_profile("ci", derandomize=True)
