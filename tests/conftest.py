"""Test-suite settings: hypothesis draws the same examples on every run.

``derandomize`` seeds each property test's examples from the test itself,
and with no example database no run replays the failures of an earlier
one, so every run of the suite tests the same inputs and takes about the
same time.  ``max_examples`` stays each test's own.
"""

from hypothesis import settings

settings.register_profile("pinned", derandomize=True, database=None)
settings.load_profile("pinned")
