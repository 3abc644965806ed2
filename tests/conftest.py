"""One hypothesis profile for the whole suite: every run draws the same examples."""

from hypothesis import settings

# no example database either, so a failure found once is not replayed by
# later runs only; no deadline, since an example's time depends on the machine
settings.register_profile("deterministic", derandomize=True, deadline=None, database=None)
settings.load_profile("deterministic")
