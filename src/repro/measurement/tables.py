"""Build the paper's measurement tables from the pipeline's merged stats.

Tables II–VI are read only from the merged
:class:`~repro.analysis.pipeline.AnalysisStats` of a
:func:`~repro.analysis.pipeline.run_analysis` run (the pass ``repro
analyze`` makes) through the pipeline's ``table*_counts`` helpers.
Each ``build_table*`` takes the stats of its corpus
(:func:`corpus_stats`: ``play`` for Tables II and IV, ``preinstalled``
for III, ``images`` for V and VI) and returns a small dataclass with
exactly the numbers the paper's table reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.pipeline import (
    AnalysisSpec,
    AnalysisStats,
    run_analysis,
    table2_counts,
    table3_counts,
    table4_counts,
    table5_counts,
    table6_counts,
)


def corpus_stats(corpus: str, seed: int = 2016) -> AnalysisStats:
    """Merged stats of a one-shard, serial pipeline run over ``corpus``."""
    spec = AnalysisSpec(corpus=corpus, seed=seed)
    return run_analysis(spec, shards=1, backend="serial").stats


# ---------------------------------------------------------------------------
# Tables II and III — potentially vulnerable installers
# ---------------------------------------------------------------------------


@dataclass
class InstallerBreakdown:
    """Shared shape of Tables II and III."""

    corpus_size: int
    installers: int
    vulnerable: int
    secure: int
    unknown: int
    write_external: int

    @property
    def known(self) -> int:
        """Installers with a resolved verdict (the 'excluding unknown' row)."""
        return self.vulnerable + self.secure

    @property
    def vulnerable_share_excluding_unknown(self) -> float:
        """e.g. 779/931 = 83.7% for the Play corpus."""
        return self.vulnerable / self.known if self.known else 0.0

    @property
    def secure_share_excluding_unknown(self) -> float:
        """e.g. 152/931 = 16.3%."""
        return self.secure / self.known if self.known else 0.0

    @property
    def vulnerable_share_including_unknown(self) -> float:
        """e.g. 779/1493 = 52.2%."""
        return self.vulnerable / self.installers if self.installers else 0.0

    @property
    def secure_share_including_unknown(self) -> float:
        """e.g. 152/1493 = 10.2%."""
        return self.secure / self.installers if self.installers else 0.0


@dataclass
class Table2(InstallerBreakdown):
    """Table II: potentially vulnerable Google Play apps."""


@dataclass
class Table3(InstallerBreakdown):
    """Table III: potentially vulnerable pre-installed apps."""

    total_instances: int = 0
    write_external_instances: int = 0


def build_table2(stats: AnalysisStats) -> Table2:
    """Fill Table II from the Play corpus's merged stats."""
    return Table2(**_breakdown(table2_counts(stats)))


def build_table3(stats: AnalysisStats) -> Table3:
    """Fill Table III from the pre-installed corpus's merged stats."""
    counts = table3_counts(stats)
    return Table3(**_breakdown(counts), total_instances=counts["instances"],
                  write_external_instances=counts["write_external_instances"])


def _breakdown(counts: Dict[str, int]) -> Dict[str, int]:
    """The shared Table II/III fields from ``table2_counts``' keys."""
    names = ("installers", "vulnerable", "secure", "unknown", "write_external")
    return dict({name: counts[name] for name in names},
                corpus_size=counts["total"])


# ---------------------------------------------------------------------------
# Table IV — hardcoded redirect URLs
# ---------------------------------------------------------------------------


@dataclass
class Table4:
    """Table IV: number of fixed URL or redirection schemes."""

    corpus_size: int
    buckets: Dict[int, Tuple[int, float]]   # limit -> (count, fraction)
    redirecting: int
    redirecting_fraction: float


def build_table4(stats: AnalysisStats) -> Table4:
    """Fill Table IV from the Play corpus's merged stats."""
    size = stats.count("apps")
    redirecting = stats.count("redirect/apps_with_any")
    return Table4(
        corpus_size=size,
        buckets={limit: (count, count / size)
                 for limit, count in table4_counts(stats).items()},
        redirecting=redirecting,
        redirecting_fraction=redirecting / size,
    )


# ---------------------------------------------------------------------------
# Table V — impact of vulnerable pre-installed installers
# ---------------------------------------------------------------------------


@dataclass
class ImpactRow:
    """One row of Table V."""

    installer_package: str
    image_count: int
    carriers: Tuple[str, ...]
    vendors: Tuple[str, ...]
    models: int


@dataclass
class Table5:
    """Table V: devices/carriers/vendors affected per installer."""

    rows: List[ImpactRow] = field(default_factory=list)

    def row_for(self, package: str) -> Optional[ImpactRow]:
        """Row of one installer, if present."""
        for row in self.rows:
            if row.installer_package == package:
                return row
        return None


def build_table5(stats: AnalysisStats) -> Table5:
    """Fill Table V from the images corpus's merged stats."""
    return Table5(rows=[
        ImpactRow(
            installer_package=package,
            image_count=counts["images"],
            carriers=stats.members(f"table5/{package}/carriers"),
            vendors=stats.members(f"table5/{package}/vendors"),
            models=counts["models"],
        )
        for package, counts in table5_counts(stats).items()
    ])


# ---------------------------------------------------------------------------
# Table VI — INSTALL_PACKAGES prevalence
# ---------------------------------------------------------------------------


@dataclass
class VendorPrivilegeRow:
    """One vendor's column of Table VI."""

    vendor: str
    avg_system_apps: float
    avg_install_packages: float

    @property
    def ratio(self) -> float:
        """Share of system apps holding INSTALL_PACKAGES."""
        return (
            self.avg_install_packages / self.avg_system_apps
            if self.avg_system_apps else 0.0
        )


@dataclass
class Table6:
    """Table VI: system apps with INSTALL_PACKAGES per vendor."""

    rows: List[VendorPrivilegeRow] = field(default_factory=list)
    doubled_over_period: bool = False
    flagship_range: Tuple[int, int] = (0, 0)

    def row_for(self, vendor: str) -> Optional[VendorPrivilegeRow]:
        """Row of one vendor."""
        for row in self.rows:
            if row.vendor == vendor:
                return row
        return None


def build_table6(stats: AnalysisStats) -> Table6:
    """Fill Table VI from the images corpus's merged stats."""
    counts = table6_counts(stats)
    rows = [
        VendorPrivilegeRow(
            vendor=vendor,
            avg_system_apps=totals["apps"] / totals["images"],
            avg_install_packages=totals["install_packages"] / totals["images"],
        )
        for vendor, totals in counts["vendors"].items()
    ]
    # The "doubled in three years" finding: oldest vs newest quartile.
    years = counts["years"]
    oldest = years[0]["install_packages"] / years[0]["images"]
    newest = years[3]["install_packages"] / years[3]["images"]
    return Table6(rows=rows, doubled_over_period=newest >= 1.9 * oldest,
                  flagship_range=counts["flagship_range"])
