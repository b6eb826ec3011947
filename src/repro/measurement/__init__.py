"""Table building and rendering for the Section IV measurement study."""

from repro.measurement.tables import (
    Table2,
    Table3,
    Table4,
    Table5,
    Table6,
    build_table2,
    build_table3,
    build_table4,
    build_table5,
    build_table6,
    corpus_stats,
)
from repro.measurement.report import render_table

__all__ = [
    "Table2", "Table3", "Table4", "Table5", "Table6",
    "build_table2", "build_table3", "build_table4",
    "build_table5", "build_table6", "corpus_stats", "render_table",
]
