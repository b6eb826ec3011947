"""Table VI: system apps holding INSTALL_PACKAGES, per vendor."""

import pytest

from repro.measurement.report import render_table6
from repro.measurement.tables import build_table6, corpus_stats

PAPER_RATIOS = {"samsung": 0.0845, "huawei": 0.1032, "xiaomi": 0.1187}


def test_table6_install_packages(benchmark, report_sink):
    table = benchmark.pedantic(
        lambda: build_table6(corpus_stats("images")), rounds=1, iterations=1
    )
    text = render_table6(table)
    text += (
        "\npaper: ~10% of system apps hold INSTALL_PACKAGES "
        "(8.45% / 10.32% / 11.87%); count doubled over three years; "
        "recent flagships ship 25-31 privileged apps"
    )
    report_sink("table6_install_packages", text)

    for vendor, target in PAPER_RATIOS.items():
        assert table.row_for(vendor).ratio == pytest.approx(target, abs=0.005)
    assert table.doubled_over_period
    low, high = table.flagship_range
    assert 25 <= low and high <= 31
