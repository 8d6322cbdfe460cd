from hypothesis import settings

# Property tests replay the same examples on every run and never fail on
# timing, so the suite's verdict does not depend on the host's speed.
settings.register_profile("deterministic", deadline=None, derandomize=True)
settings.load_profile("deterministic")
