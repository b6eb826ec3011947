"""The paired perf gate's verdict, on synthetic perfbench result lines."""

import pathlib
import runpy

import pytest

REPO = pathlib.Path(__file__).parent.parent
GATE = runpy.run_path(str(REPO / "tools" / "perf_gate.py"))
verdict = GATE["verdict"]


def result(rate, correct=True, failed=0):
    """A perfbench result line as ``json.loads`` returns it."""
    return {"correct": correct, "attempted": 100, "failed": failed,
            "metrics": {"items_per_s": {"value": rate, "unit": "1/s"}}}


def results(*rates):
    return [result(rate) for rate in rates]


def test_the_bound_is_the_declared_items_per_s_bound():
    assert GATE["read_bound"](str(REPO)) == 0.24


def test_passes_within_the_bound_and_on_speedups():
    for change in ((90.0, 77.0, 95.0), (80.0, 76.5, 76.5),
                   (140.0, 150.0, 160.0)):
        line, failures = verdict("w", results(100.0, 98.0, 104.0),
                                 results(*change), 0.24)
        assert failures == []
        assert line.startswith("w: items_per_s median base 100.0")


def test_fails_past_the_bound_on_the_medians():
    # One fast change run does not hide a slower median.
    line, failures = verdict("w", results(100.0, 98.0, 104.0),
                             results(75.0, 74.0, 130.0), 0.24)
    assert "(-25.0%, fails below -24%)" in line
    assert failures == ["w: items_per_s median 75.0 is 25.0% below the "
                        "base's 100.0 (bound 24%)"]


@pytest.mark.parametrize("side", ["base", "change"])
def test_fails_on_an_incorrect_run(side):
    runs = {"base": results(100.0, 100.0), "change": results(100.0, 100.0)}
    runs[side][1] = result(100.0, correct=False)
    _, failures = verdict("w", runs["base"], runs["change"], 0.24)
    assert failures == [f"w: {side} run 2 is not correct"]


def test_fails_on_a_failed_operation():
    change = [result(100.0), result(100.0, failed=3)]
    _, failures = verdict("w", results(100.0, 100.0), change, 0.24)
    assert failures == ["w: change run 2 failed 3 of 100 operations"]


def test_a_run_with_no_result_line_fails():
    crashed = {"correct": False, "failed": 0,
               "error": "exit 1, no result line"}
    _, failures = verdict("w", results(100.0), [crashed], 0.24)
    assert failures[0] == ("w: change run 1 is not correct "
                           "exit 1, no result line")


def test_reports_the_base_quartile_spread():
    line, _ = verdict("w", results(90.0, 100.0, 110.0),
                      results(100.0, 100.0, 100.0), 0.24)
    assert line.endswith("base quartile spread 10.0% over 3 run(s)")


def test_usage_errors_exit_2(tmp_path, capsys):
    assert GATE["main"]([str(tmp_path)]) == 2
    assert GATE["main"]([str(tmp_path), str(tmp_path / "missing"),
                         "fleet-benign"]) == 2
    assert "perf_gate.py BASE_DIR CHANGE_DIR" in capsys.readouterr().err
