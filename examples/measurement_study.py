#!/usr/bin/env python3
"""The full Section IV measurement study over the synthetic corpora.

Runs the measurement pipeline once per corpus (Play, pre-installed and
the factory-image fleet) at one shard, builds Tables II-VI from its
merged stats, and prints them plus the platform-key and Hare findings.

Run:  python examples/measurement_study.py
"""

from repro.analysis.factory_images import generate_fleet
from repro.analysis.hare_analysis import search_images
from repro.analysis.platform_keys import analyze, generate_appstore_catalogs
from repro.measurement.report import (
    render_installer_breakdown,
    render_table4,
    render_table5,
    render_table6,
)
from repro.measurement.tables import (
    build_table2,
    build_table3,
    build_table4,
    build_table5,
    build_table6,
    corpus_stats,
)


def main():
    print("running the measurement pipeline (seeded, deterministic)...\n")

    play = corpus_stats("play")
    print(render_installer_breakdown(
        "Table II: potentially vulnerable GooglePlay apps (SD-Card usage)",
        build_table2(play),
    ))
    print()
    print(render_installer_breakdown(
        "Table III: potentially vulnerable pre-installed apps",
        build_table3(corpus_stats("preinstalled")),
    ))
    print()
    print(render_table4(build_table4(play)))
    print()

    images = corpus_stats("images")
    print(render_table5(build_table5(images)))
    print()
    print(render_table6(build_table6(images)))
    print()

    fleet = generate_fleet()
    catalogs = generate_appstore_catalogs()
    keys = analyze(fleet, catalogs)
    print("Platform key usage (Section IV-B):")
    for vendor, count in keys.keys_per_vendor.items():
        print(
            f"  {vendor:8s}: {count} platform key; "
            f"{keys.avg_platform_signed_per_image[vendor]:.0f} platform-signed "
            f"apps/image; {keys.distinct_platform_packages[vendor]} distinct; "
            f"{keys.store_signed_counts[vendor]} platform-signed apps found "
            "in appstores"
        )
    vulnerable = keys.vulnerable_store_apps()
    print(f"  known-vulnerable platform-signed store app: "
          f"{vulnerable[0].package if vulnerable else 'none'}")
    print()

    hare = search_images(fleet)
    print("Hare permissions (Section IV-B):")
    print(f"  hare-using apps on 10 sample images : {len(hare.hare_apps)}")
    print(f"  unique vulnerable cases             : {hare.total_cases}")
    print(f"  average per searched image          : {hare.average_per_image:.1f}")


if __name__ == "__main__":
    main()
