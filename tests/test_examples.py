"""Smoke tests: every example script must run clean end to end."""

import pathlib
import runpy
import sys

import pytest

EXAMPLES_DIR = pathlib.Path(__file__).parent.parent / "examples"

FAST_EXAMPLES = [
    "quickstart.py",
    "carrier_bloatware_hijack.py",
    "appstore_phishing.py",
    "defense_evaluation.py",
    "secure_installer_toolkit.py",
    "attack_forensics.py",
    "measurement_study.py",
]


@pytest.mark.parametrize("script", FAST_EXAMPLES)
def test_example_runs(script, capsys):
    runpy.run_path(str(EXAMPLES_DIR / script), run_name="__main__")
    out = capsys.readouterr().out
    assert out.strip(), f"{script} produced no output"


def test_quickstart_tells_the_story(capsys):
    runpy.run_path(str(EXAMPLES_DIR / "quickstart.py"), run_name="__main__")
    out = capsys.readouterr().out
    assert "HIJACKED         : True" in out
    assert "HIJACKED         : False" in out


def test_examples_directory_is_complete():
    scripts = {path.name for path in EXAMPLES_DIR.glob("*.py")}
    assert set(FAST_EXAMPLES) == scripts  # every example is smoke-run
