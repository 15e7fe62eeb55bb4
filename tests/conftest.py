"""Hypothesis profiles for the test suite.

By default every property test draws the same examples on every run (a
seed derived from the test itself, no example database), so a run's
outcome and its time depend on the code alone.  Each test keeps its own
example count.  ``HYPOTHESIS_PROFILE=explore`` draws fresh examples on
each run, to search for new counterexamples:

    HYPOTHESIS_PROFILE=explore python -m pytest -q
"""
import os

from hypothesis import settings

settings.register_profile("tier1", derandomize=True, database=None)
settings.register_profile("explore", derandomize=False)
settings.load_profile(os.environ.get("HYPOTHESIS_PROFILE", "tier1"))
