"""One deterministic hypothesis profile for the whole suite.

Every `@given` test draws the same examples on every run and writes no
example database, so a run reproduces exactly and leaves no `.hypothesis/`
directory behind. Each test keeps its own `max_examples` (100 where it sets
none).
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
