"""Shared fixtures for the analysis tests."""

from __future__ import annotations

from typing import Dict, List

import pytest

from repro.analysis.factory_images import FactoryImage, Fleet, generate_fleet


@pytest.fixture(scope="session")
def fleet() -> Fleet:
    """The paper-scale 1,855-image fleet, generated once per session.

    Tests only read it; a test that compares two generations (say, for
    determinism) makes its own.
    """
    return generate_fleet(seed=2016)


@pytest.fixture(scope="session")
def vendor_images(fleet: Fleet) -> Dict[str, List[FactoryImage]]:
    """The fleet's images by vendor, in fleet order."""
    images: Dict[str, List[FactoryImage]] = {}
    for image in fleet.images:
        images.setdefault(image.vendor, []).append(image)
    return images
