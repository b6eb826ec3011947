"""Shared fixtures for the benchmark harness.

Every benchmark regenerates one of the paper's tables or figures,
printing a paper-vs-measured comparison and writing it to
``benchmarks/results/<name>.txt``.  Benchmarks use seeded generators,
so the numbers are exactly reproducible.
"""

from __future__ import annotations

import pathlib

import pytest

from repro.analysis.factory_images import generate_fleet
from repro.analysis.platform_keys import generate_appstore_catalogs

RESULTS_DIR = pathlib.Path(__file__).parent / "results"


@pytest.fixture(scope="session")
def fleet():
    """The 1,855-image factory fleet."""
    return generate_fleet(seed=2016)


@pytest.fixture(scope="session")
def catalogs():
    """The 1.2M-app, 33-store signature corpus."""
    return generate_appstore_catalogs(seed=2016)


@pytest.fixture(scope="session")
def report_sink():
    """Callable that persists a rendered report and echoes it."""
    RESULTS_DIR.mkdir(exist_ok=True)

    def sink(name: str, text: str) -> None:
        (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")
        print(f"\n{text}\n")

    return sink
