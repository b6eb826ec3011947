"""Shared fixtures for the analysis tests."""

from __future__ import annotations

import pytest

from repro.analysis.factory_images import Fleet, generate_fleet


@pytest.fixture(scope="session")
def fleet() -> Fleet:
    """The paper-scale 1,855-image fleet, generated once per session.

    Tests only read it; a test that compares two generations (say, for
    determinism) makes its own.
    """
    return generate_fleet(seed=2016)
