"""One hypothesis profile for every property test: no deadline, and the same draws each run."""

from hypothesis import settings

settings.register_profile("starclone", max_examples=150, deadline=None, derandomize=True)
settings.load_profile("starclone")
