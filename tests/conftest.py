from __future__ import annotations

import pytest
from hypothesis import HealthCheck, settings

settings.register_profile(
    "suite",
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


# The fixtures import the package when they are first built, not when this
# file loads: collecting lvbench/test_lvbench.py re-imports lvcompete from
# src/ after this file has loaded, and objects of the earlier import are of
# other classes (pickle, for one, refuses them).


@pytest.fixture(scope="session")
def gallery():
    """All nine reference parameter sets, keyed by label."""
    import lvcompete as lv

    return {label: lv.gallery_entry(label) for label in lv.gallery_labels()}


@pytest.fixture(scope="session")
def gallery_params(gallery):
    return {label: entry.params for label, entry in gallery.items()}
