"""Tests for the ``python -m repro`` CLI."""

import inspect
import pathlib

import pytest

from repro.__main__ import build_parser, main

RESULTS_DIR = pathlib.Path(__file__).parent.parent / "benchmarks" / "results"


def test_demo_command(capsys):
    assert main(["demo"]) == 0
    out = capsys.readouterr().out
    assert "[undefended] hijacked=True" in out
    assert "[defended] hijacked=False" in out


def test_attack_command_default(capsys):
    assert main(["attack"]) == 0
    out = capsys.readouterr().out
    assert "hijacked  : True" in out
    assert "AIT of com.amazon.venezia" in out


def test_attack_command_with_defense(capsys):
    assert main(["attack", "--installer", "dtignite",
                 "--attack", "fileobserver", "--defense", "fuse-dac"]) == 0
    out = capsys.readouterr().out
    assert "hijacked  : False" in out
    assert "BLOCKED" in out


def test_attack_command_no_attacker(capsys):
    assert main(["attack", "--attack", "none"]) == 0
    out = capsys.readouterr().out
    assert "hijacked  : False" in out


def test_audit_command(capsys):
    assert main(["audit"]) == 0
    out = capsys.readouterr().out
    assert "amazon" in out
    assert "[CRITICAL]" in out
    assert "clean" in out  # the toolkit installer


def test_fleet_command_runs_sharded_campaign(capsys):
    assert main(["fleet", "--installs", "40", "--shards", "4",
                 "--workers", "2", "--quiet", "--seed", "11"]) == 0
    out = capsys.readouterr().out
    assert "40 installs over 4 shard(s)" in out
    assert "clean      : 40" in out
    assert "95% CI" in out


def test_fleet_command_serial_backend_and_defenses(capsys):
    assert main(["fleet", "--installs", "6", "--installer", "dtignite",
                 "--attack", "fileobserver", "--defense", "fuse-dac",
                 "--shards", "2", "--backend", "serial", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "backend=serial" in out
    assert "hijacked   : 0" in out
    assert "blocked    : " in out


def test_fleet_progress_lines_go_to_stderr(capsys):
    assert main(["fleet", "--installs", "4", "--shards", "2",
                 "--backend", "serial"]) == 0
    captured = capsys.readouterr()
    assert "[fleet]" in captured.err
    assert "[fleet]" not in captured.out


def test_seed_flag_reproduces_and_varies_output(capsys):
    main(["attack", "--installer", "dtignite", "--seed", "3"])
    first = capsys.readouterr().out
    main(["attack", "--installer", "dtignite", "--seed", "3"])
    second = capsys.readouterr().out
    assert first == second
    assert "hijacked  : True" in first


def test_seed_flag_accepted_by_every_command():
    parser = build_parser()
    for argv in (["demo", "--seed", "1"],
                 ["attack", "--seed", "2"],
                 ["tables", "--seed", "3"],
                 ["audit", "--seed", "4"],
                 ["fleet", "--seed", "5"]):
        args = parser.parse_args(argv)
        assert args.seed == int(argv[-1])


def test_demo_with_seed(capsys):
    assert main(["demo", "--seed", "9"]) == 0
    out = capsys.readouterr().out
    assert "[undefended] hijacked=True" in out
    assert "[defended] hijacked=False" in out


def test_parser_rejects_unknown_installer():
    with pytest.raises(SystemExit):
        build_parser().parse_args(["attack", "--installer", "notastore"])


def test_parser_requires_command():
    with pytest.raises(SystemExit):
        build_parser().parse_args([])


# -- observability flags -----------------------------------------------------


def test_obs_flags_accepted_by_every_command():
    parser = build_parser()
    for command in ("demo", "attack", "tables", "audit", "fleet"):
        args = parser.parse_args([command, "--trace", "t.jsonl", "--metrics"])
        assert args.trace == "t.jsonl"
        assert args.metrics is True


def test_attack_metrics_flag_prints_snapshot(capsys):
    assert main(["attack", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "metrics:" in out
    assert "counter   ait/runs" in out
    assert "histogram ait/elapsed_ns" in out


def test_demo_trace_flag_writes_valid_jsonl(tmp_path, capsys):
    from repro.obs import load_trace_jsonl

    path = str(tmp_path / "demo.jsonl")
    assert main(["demo", "--trace", path]) == 0
    records = load_trace_jsonl(path)
    assert records
    assert {"attack/strike", "install/outcome"} <= {
        r["name"] for r in records}
    assert f"-> {path}" in capsys.readouterr().err


def test_fleet_trace_and_metrics(tmp_path, capsys):
    from repro.obs import load_trace_jsonl

    path = str(tmp_path / "fleet.jsonl")
    assert main(["fleet", "--installs", "6", "--shards", "2",
                 "--backend", "serial", "--quiet",
                 "--attack", "fileobserver", "--trace", path,
                 "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "fleet metrics:" in out
    assert "counter   campaign/runs" in out
    assert "engine: 2 shard start(s), 2 done" in out
    records = load_trace_jsonl(path)
    assert records
    assert all("shard" in record for record in records)


def test_fleet_without_obs_flags_skips_observability(tmp_path, capsys):
    assert main(["fleet", "--installs", "2", "--shards", "1",
                 "--backend", "serial", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "metrics" not in out


def test_tables_and_audit_honour_obs_flags(tmp_path, capsys):
    from repro.obs import load_trace_jsonl

    path = str(tmp_path / "audit.jsonl")
    assert main(["audit", "--trace", path, "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "metrics: 0 metric(s)" in out
    assert load_trace_jsonl(path) == []  # valid, empty


def test_tables_match_committed_benchmark_results(capsys):
    assert main(["tables"]) == 0
    blocks = capsys.readouterr().out.rstrip("\n").split("\n\n")
    names = ["table2_play_installers", "table3_preinstalled_installers",
             "table4_redirect_targets", "table5_impact",
             "table6_install_packages"]
    assert len(blocks) == len(names)
    for name, block in zip(names, blocks):
        lines = block.splitlines()
        committed = (RESULTS_DIR / f"{name}.txt").read_text().splitlines()
        # Tables II and III carry a different title in the benchmark.
        skip = 1 if name.startswith(("table2", "table3")) else 0
        assert lines[skip:] == committed[skip:len(lines)], name


def test_tables_seed_reaches_every_corpus(monkeypatch, capsys):
    from repro.analysis import corpus, factory_images, pipeline

    seeds = []

    def spy(owner, attribute, kind):
        original = getattr(owner, attribute)
        signature = inspect.signature(original)

        def wrapper(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            seeds.append((kind, bound.arguments["seed"]))
            return original(*args, **kwargs)

        monkeypatch.setattr(owner, attribute, wrapper)

    spy(corpus.PlayCorpusPlan, "__init__", "play")
    spy(corpus.PreinstalledCorpusPlan, "__init__", "preinstalled")
    spy(factory_images, "generate_fleet", "fleet")
    pipeline._image_plan.cache_clear()  # a memoized fleet skips generation
    assert main(["tables", "--seed", "3"]) == 0
    capsys.readouterr()
    assert {kind for kind, _seed in seeds} == {"play", "preinstalled",
                                              "fleet"}
    assert all(seed == 3 for _kind, seed in seeds), seeds


def test_fleet_identical_trace_for_fixed_seed(tmp_path):
    first = str(tmp_path / "a.jsonl")
    second = str(tmp_path / "b.jsonl")
    for path in (first, second):
        assert main(["fleet", "--installs", "6", "--shards", "3",
                     "--backend", "serial", "--quiet", "--seed", "5",
                     "--trace", path]) == 0
    with open(first, "rb") as a, open(second, "rb") as b:
        assert a.read() == b.read()


# -- chaos spec validation ---------------------------------------------------


def test_fleet_invalid_chaos_spec_exits_2(capsys):
    # Regression: used to escape as a raw ValueError traceback.
    assert main(["fleet", "--chaos", "crash:bogus", "--installs", "4",
                 "--quiet"]) == 2
    err = capsys.readouterr().err
    assert "error: invalid chaos spec 'crash:bogus'" in err
    assert "Traceback" not in err


def test_fleet_unknown_chaos_mode_exits_2(capsys):
    assert main(["fleet", "--chaos", "explode:1", "--installs", "4",
                 "--quiet"]) == 2
    assert "unknown mode" in capsys.readouterr().err


def test_fleet_zero_installs_is_fine(capsys):
    assert main(["fleet", "--installs", "0", "--shards", "2",
                 "--backend", "serial", "--quiet", "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "0 installs over 2 shard(s)" in out
    assert "CI [0.0000, 1.0000]" in out
    assert "fleet metrics: 0 metric(s)" in out


# -- analyze ------------------------------------------------------------------


def test_analyze_stdout_identical_across_splits(capsys):
    outputs = []
    for extra in (["--shards", "1"], ["--shards", "4"]):
        assert main(["analyze", "--corpus", "play", "--apps", "400",
                     "--backend", "serial", "--quiet"] + extra) == 0
        captured = capsys.readouterr()
        outputs.append(captured.out)
        assert "wall:" in captured.err  # timing stays off stdout
    assert outputs[0] == outputs[1]
    assert "apps analyzed           : 400" in outputs[0]


def test_analyze_preinstalled_reports_instances(capsys):
    assert main(["analyze", "--corpus", "preinstalled", "--apps", "200",
                 "--backend", "serial", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "app instances" in out
    assert "WRITE_EXTERNAL instances" in out


def test_analyze_cache_lines_on_stderr(tmp_path, capsys):
    cache = str(tmp_path / "cache")
    argv = ["analyze", "--corpus", "play", "--apps", "120",
            "--backend", "serial", "--quiet", "--cache", cache]
    assert main(argv) == 0
    first = capsys.readouterr()
    assert "cache: 0 hit(s), 120 analyzed" in first.err
    assert main(argv) == 0
    second = capsys.readouterr()
    assert "cache: 120 hit(s), 0 analyzed" in second.err
    assert first.out == second.out  # cache state never changes the tables


def test_analyze_trace_and_metrics(tmp_path, capsys):
    from repro.obs import load_trace_jsonl

    path = str(tmp_path / "analysis.jsonl")
    assert main(["analyze", "--corpus", "play", "--apps", "50",
                 "--backend", "serial", "--quiet",
                 "--trace", path, "--metrics"]) == 0
    out = capsys.readouterr().out
    assert "analysis metrics:" in out
    assert "counter   analysis/apps" in out
    records = load_trace_jsonl(path)
    assert len(records) == 50
    assert all(record["name"] == "analysis/app" for record in records)


def test_analyze_images_apps_scales_the_fleet(capsys):
    assert main(["analyze", "--corpus", "images", "--apps", "99",
                 "--backend", "serial", "--quiet"]) == 0
    out = capsys.readouterr().out
    assert "size=99" in out
    assert "images analyzed         : 99" in out


def test_analyze_images_apps_below_floor_rejected(capsys):
    assert main(["analyze", "--corpus", "images", "--apps", "10",
                 "--quiet"]) == 2
    assert "at least 50 images" in capsys.readouterr().err
