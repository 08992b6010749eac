"""One hypothesis profile for every property test (no deadline, and the same draws
each run), and the fixtures that patch a mutant in and that measure memory."""

import sys
import tracemalloc

import pytest
from hypothesis import settings

settings.register_profile("starclone", max_examples=150, deadline=None, derandomize=True)
settings.load_profile("starclone")


@pytest.fixture
def patch_bindings(monkeypatch):
    """patch(original, stand_in) swaps every binding of original in every starclone module."""
    def patch(original, stand_in):
        for name, module in list(sys.modules.items()):
            if name == "starclone" or name.startswith("starclone."):
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, stand_in)
    return patch


@pytest.fixture
def peak_and_estimates(monkeypatch):
    """measure(call, *modules): tracemalloc's peak during call(), and every estimate
    the given modules' _require_memory was asked to check, none enforced."""
    def measure(call, *modules):
        estimates = []
        for module in modules:
            monkeypatch.setattr(module, "_require_memory",
                                lambda need, what: estimates.append(need))
        tracemalloc.start()
        try:
            call()
            return tracemalloc.get_traced_memory()[1], estimates
        finally:
            tracemalloc.stop()
    return measure
