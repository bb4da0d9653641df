"""Tier-1 means the same thing on every run: property tests draw their
examples from a seed derived from the test itself, not from the clock.

This module is imported before the hypothesis pytest plugin's
``pytest_configure`` reads ``--hypothesis-profile``, so that flag still
wins: ``--hypothesis-profile=default`` explores with a fresh seed per run
(add ``--hypothesis-seed=N`` to pin one; under ``derandomize`` the seed
flag is ignored).
"""

from hypothesis import settings

settings.register_profile("tier1", derandomize=True)
settings.load_profile("tier1")
