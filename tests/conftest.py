"""Shared test settings: every hypothesis test runs the same examples each time."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None)
settings.load_profile("deterministic")
