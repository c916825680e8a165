"""Property tests draw the same examples on every run, keep no example
database and have no deadline, so a slow or loaded machine cannot make them
flake."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
