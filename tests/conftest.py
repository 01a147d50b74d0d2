"""Hypothesis profiles of tests/test_exit_codes.py.

Hypothesis loads the profile that --hypothesis-profile names when pytest
configures itself, before it imports any test module, so the profiles are
registered here, when pytest loads this file.  Both are derandomized:
"exit-codes" (40 examples per case) is the Tier-1 run, and
"exit-codes-long" (ten times as many) a CI step of its own:

    pytest tests/test_exit_codes.py --hypothesis-profile=exit-codes-long

No other test reads them: each keeps hypothesis's default profile or its
own settings.
"""

from hypothesis import HealthCheck, settings

settings.register_profile("exit-codes", derandomize=True, deadline=None, max_examples=40,
                          database=None, suppress_health_check=[HealthCheck.too_slow,
                                                                HealthCheck.data_too_large])
settings.register_profile("exit-codes-long", settings.get_profile("exit-codes"),
                          max_examples=400)
