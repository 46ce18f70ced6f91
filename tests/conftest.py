"""Hypothesis runs derandomized and without an example database, so a tier-1
run's result depends neither on the run nor on earlier runs."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
