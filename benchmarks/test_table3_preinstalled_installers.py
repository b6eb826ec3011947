"""Table III: potentially vulnerable pre-installed apps."""

from repro.measurement.report import render_installer_breakdown
from repro.measurement.tables import build_table3, corpus_stats

PAPER = {
    "vulnerable": 102,
    "secure": 3,
    "installers": 238,
    "vulnerable_share_excl": 0.971,
    "write_external_instances": 5864,
    "total_instances": 12050,
}


def test_table3_preinstalled_installers(benchmark, report_sink):
    table = benchmark.pedantic(
        lambda: build_table3(corpus_stats("preinstalled")),
        rounds=1, iterations=1,
    )
    text = render_installer_breakdown(
        "Table III: potentially vulnerable pre-installed apps (measured)",
        table,
    )
    text += (
        f"\ninstances={table.total_instances}, "
        f"WRITE_EXTERNAL instances={table.write_external_instances}"
        f"\npaper: 102/105 (97.1%) SD-Card, 3/105 (2.86%) internal; "
        f"including unknown 42.9% / 1.26%; WRITE_EXTERNAL 5864/12050"
    )
    report_sink("table3_preinstalled_installers", text)

    assert table.vulnerable == PAPER["vulnerable"]
    assert table.secure == PAPER["secure"]
    assert table.installers == PAPER["installers"]
    assert abs(table.vulnerable_share_excluding_unknown
               - PAPER["vulnerable_share_excl"]) < 0.001
    assert table.write_external_instances == PAPER["write_external_instances"]
    assert table.total_instances == PAPER["total_instances"]
