#!/usr/bin/env python3
"""The full Section IV measurement study over the synthetic corpora.

Runs the measurement pipeline once per corpus (Play, pre-installed and
the factory-image fleet) at one shard, builds Tables II-VI and the
Section IV-B Hare and platform-key findings from its merged stats, and
prints them.

Run:  python examples/measurement_study.py
"""

from repro.analysis.platform_keys import generate_appstore_catalogs
from repro.measurement import report, tables


def main():
    print("running the measurement pipeline (seeded, deterministic)...\n")

    play = tables.corpus_stats("play")
    preinstalled = tables.corpus_stats("preinstalled")
    images = tables.corpus_stats("images")
    keys = tables.build_platform_keys(images, generate_appstore_catalogs())
    print("\n\n".join([
        report.render_installer_breakdown(
            "Table II: potentially vulnerable GooglePlay apps (SD-Card usage)",
            tables.build_table2(play)),
        report.render_installer_breakdown(
            "Table III: potentially vulnerable pre-installed apps",
            tables.build_table3(preinstalled)),
        report.render_table4(tables.build_table4(play)),
        report.render_table5(tables.build_table5(images)),
        report.render_table6(tables.build_table6(images)),
        report.render_hare(tables.build_hare(images)),
        report.render_platform_keys(keys),
    ]))
    vulnerable = keys.vulnerable_store_apps
    print(f"known-vulnerable platform-signed store app: "
          f"{vulnerable[0].package if vulnerable else 'none'}")


if __name__ == "__main__":
    main()
