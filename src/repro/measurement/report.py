"""ASCII rendering of measurement tables, paper-vs-measured style."""

from __future__ import annotations

from typing import Iterable, List, Sequence, Tuple

from repro.measurement.tables import (
    HareFindings,
    InstallerBreakdown,
    PlatformKeys,
    Table4,
    Table5,
    Table6,
)


def render_table(title: str, headers: Sequence[str],
                 rows: Iterable[Sequence[object]]) -> str:
    """Render a simple fixed-width table."""
    materialized = [[str(cell) for cell in row] for row in rows]
    widths = [len(header) for header in headers]
    for row in materialized:
        for index, cell in enumerate(row):
            widths[index] = max(widths[index], len(cell))
    def line(cells: Sequence[str]) -> str:
        return " | ".join(cell.ljust(widths[index]) for index, cell in enumerate(cells))
    separator = "-+-".join("-" * width for width in widths)
    out = [title, line(list(headers)), separator]
    out.extend(line(row) for row in materialized)
    return "\n".join(out)


def pct(value: float) -> str:
    """Format a fraction as the paper prints percentages."""
    return f"{value * 100:.1f}%"


def render_installer_breakdown(title: str,
                               table: InstallerBreakdown) -> str:
    """Render a Table II/III-shaped breakdown."""
    rows: List[Tuple[str, str, str]] = [
        (
            "Excluding Unknown Apps",
            f"{table.vulnerable}/{table.known} "
            f"({pct(table.vulnerable_share_excluding_unknown)})",
            f"{table.secure}/{table.known} "
            f"({pct(table.secure_share_excluding_unknown)})",
        ),
        (
            "Including Unknown Apps",
            f"{table.vulnerable}/{table.installers} "
            f"({pct(table.vulnerable_share_including_unknown)})",
            f"{table.secure}/{table.installers} "
            f"({pct(table.secure_share_including_unknown)})",
        ),
    ]
    body = render_table(
        title,
        ["Type", "SD-Card (potentially vulnerable)",
         "Internal Storage (potentially secure)"],
        rows,
    )
    footer = (
        f"\ncorpus={table.corpus_size}, installers={table.installers}, "
        f"WRITE_EXTERNAL_STORAGE={table.write_external}"
    )
    return body + footer


def render_table4(table: Table4) -> str:
    """Render Table IV."""
    headers = ["# hardcoded url or scheme", "1", "<=2", "<=4", "<=8"]
    row = ["# apps"]
    for limit in (1, 2, 4, 8):
        count, fraction = table.buckets[limit]
        row.append(f"{pct(fraction)} ({count}/{table.corpus_size})")
    body = render_table("Table IV: number of fixed url or redirection scheme",
                        headers, [row])
    return body + (
        f"\nredirecting apps overall: {table.redirecting}/{table.corpus_size} "
        f"({pct(table.redirecting_fraction)})"
    )


def render_table5(table: Table5) -> str:
    """Render Table V."""
    rows = [
        (
            row.installer_package,
            row.image_count,
            row.models,
            ", ".join(row.carriers[:6]) + ("..." if len(row.carriers) > 6 else ""),
            ", ".join(row.vendors),
        )
        for row in table.rows
    ]
    return render_table(
        "Table V: impact of vulnerable pre-installed installers",
        ["Vulnerable app", "Images", "Models", "Carriers", "Vendors"],
        rows,
    )


def render_table6(table: Table6) -> str:
    """Render Table VI."""
    rows = [
        (
            row.vendor,
            f"{row.avg_install_packages:.1f}/{row.avg_system_apps:.1f}",
            pct(row.ratio),
        )
        for row in table.rows
    ]
    body = render_table(
        "Table VI: system apps with INSTALL_PACKAGES",
        ["Vendor", "avg INSTALL_PACKAGES / avg system apps", "ratio"],
        rows,
    )
    low, high = table.flagship_range
    return body + (
        f"\ndoubled over 3 years: {table.doubled_over_period}; "
        f"flagship privileged apps: {low}-{high}"
    )


def render_hare(findings: HareFindings) -> str:
    """Render the Hare finding beside the paper's figures."""
    rows = [
        (f"hare-using apps ({findings.sample_images} sample images)", 178,
         findings.apps),
        ("unique vulnerable cases", 27763, findings.cases),
        ("average per searched image", 23.5,
         f"{findings.average_per_image:.1f}"),
        ("searched images", 1181, findings.searched_images),
    ]
    return render_table("Hare permission prevalence (Section IV-B)",
                        ["metric", "paper", "measured"], rows)


#: The paper's per-vendor (signed apps/image, distinct signed, in
#: stores), in the order the platform-key table prints its rows.
_PAPER_PLATFORM = {
    "samsung": (142, 884, 61),
    "huawei": (68, 301, 125),
    "xiaomi": (84, 216, 30),
}


def render_platform_keys(table: PlatformKeys) -> str:
    """Render the platform-key finding beside the paper's figures."""
    rows = [
        (
            vendor,
            table.keys[vendor],
            f"{table.avg_signed_per_image[vendor]:.1f} (paper {per_image})",
            f"{table.distinct_signed[vendor]} (paper {distinct})",
            f"{table.signed_in_stores[vendor]} (paper {in_stores})",
        )
        for vendor, (per_image, distinct, in_stores) in _PAPER_PLATFORM.items()
    ]
    return render_table(
        "Platform key usage (Section IV-B)",
        ["vendor", "platform keys", "signed apps/image", "distinct signed",
         "signed apps in stores"],
        rows,
    )
