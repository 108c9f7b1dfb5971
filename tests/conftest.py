"""Shared test settings.

Property-based tests draw their examples from a fixed seed, so a rerun of
the suite tries exactly the same inputs; there is no example database and
no per-example deadline (timings vary from host to host).
"""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
