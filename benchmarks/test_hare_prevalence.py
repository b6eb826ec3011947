"""Section IV-B Hare prevalence: 178 hare apps, 27,763 vulnerable cases."""

import pytest

from repro.measurement.report import render_hare
from repro.measurement.tables import build_hare, corpus_stats


def test_hare_prevalence(benchmark, report_sink):
    hare = benchmark.pedantic(lambda: build_hare(corpus_stats("images")),
                              rounds=1, iterations=1)
    report_sink("hare_prevalence", render_hare(hare))

    assert hare.apps == 178
    assert hare.cases == 27763
    assert hare.average_per_image == pytest.approx(23.5, abs=0.1)
    assert hare.searched_images == 1181
