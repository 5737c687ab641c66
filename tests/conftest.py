"""Hypothesis profiles for the property tests.

`tier1` (the default) is the fast, reproducible run: 50 derandomized
examples per test.  `wide` draws at least 500 random examples per test;
select it with `pytest --hypothesis-profile=wide tests/test_properties.py`.
"""

try:
    from hypothesis import settings
except ImportError:  # the `test` extra is absent; test_properties skips
    pass
else:
    settings.register_profile(
        "tier1", max_examples=50, derandomize=True, database=None, deadline=None
    )
    settings.register_profile(
        "wide", max_examples=600, database=None, deadline=None
    )
    settings.load_profile("tier1")
