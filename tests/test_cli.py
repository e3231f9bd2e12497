"""End-to-end command-line coverage driving main() in process."""

import json
import shutil
from dataclasses import fields

import pytest

from v2xloop.cli import main, parse_seeds
from v2xloop.harness import SWEEP_COLS
from v2xloop.logio import read_csv, read_json, write_json
from v2xloop.metrics import EpisodeMetrics
from v2xloop.scenarios import build_s1, spec_to_dict


def test_parse_seeds_forms():
    assert parse_seeds("1..5") == [1, 2, 3, 4, 5]
    assert parse_seeds("7") == [7]
    assert parse_seeds("1,4, 9") == [1, 4, 9]
    assert parse_seeds("3..3") == [3]
    with pytest.raises(ValueError):
        parse_seeds("5..1")


@pytest.mark.parametrize("seeds", ["1..x", "a,b", "1.5"])
def test_bad_seeds_exit_with_one_line_naming_the_flag(tmp_path, seeds):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"k_p": [0.6]}))
    for argv in (["batch", "--scenario", "s1", "--seeds", seeds],
                 ["sweep", "--grid", str(grid), "--scenarios", "s1", "--seeds", seeds]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert str(exc.value) == (f"v2xloop {argv[0]}: --seeds: expected a range like "
                                  f"1..30 or seeds like 1,2,5, got {seeds!r}")


def test_run_writes_outputs(tmp_path, capsys):
    out = tmp_path / "ep"
    rc = main(["run", "--scenario", "s1", "--seed", "2", "--out", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "goal_reached" in text
    assert (out / "summary.json").is_file()
    assert (out / "scenario.json").is_file()
    assert (out / "logs" / "vehicle.csv").is_file()


def test_run_prints_every_metric(capsys):
    assert main(["run", "--scenario", "s1", "--seed", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    # a head line, then one line per metric
    assert [line.split()[0] for line in lines[1:]] == [f.name for f in fields(EpisodeMetrics)]


def test_run_accepts_config_document(tmp_path, capsys):
    cfg = tmp_path / "scenario.json"
    write_json(cfg, spec_to_dict(build_s1()))
    rc = main(["run", "--config", str(cfg), "--seed", "1"])
    assert rc == 0
    assert "s1" in capsys.readouterr().out


def test_run_config_scenario_conflict(tmp_path):
    cfg = tmp_path / "scenario.json"
    write_json(cfg, spec_to_dict(build_s1()))
    with pytest.raises(SystemExit):
        main(["run", "--config", str(cfg), "--scenario", "s2"])


def test_run_rejects_old_document_spelling(tmp_path):
    d = spec_to_dict(build_s1())
    d["map"] = d.pop("vmap")
    cfg = tmp_path / "scenario.json"
    write_json(cfg, d)
    with pytest.raises(SystemExit, match=r"scenario\.map: unknown key"):
        main(["run", "--config", str(cfg)])


def test_run_requires_some_scenario():
    with pytest.raises(SystemExit):
        main(["run", "--seed", "1"])


def test_ablation_flag(capsys):
    rc = main(["run", "--scenario", "s3", "--ablation", "--seed", "1"])
    assert rc == 0
    assert "safety_stop" in capsys.readouterr().out
    with pytest.raises(SystemExit):
        main(["run", "--scenario", "s1", "--ablation"])


def test_batch_and_report(tmp_path, capsys):
    out = tmp_path / "batch"
    rc = main(["batch", "--scenario", "s1", "--seeds", "1..3",
               "--out", str(out)])
    assert rc == 0
    assert "3 episodes" in capsys.readouterr().out
    rc = main(["report", "--in", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "completion_rate=1.000" in text
    assert "goal_reached" in text


def test_empty_seed_list_exits_with_message(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"look_ahead": [4.0]}))
    for argv in (["batch", "--scenario", "s1"],
                 ["sweep", "--grid", str(grid), "--scenarios", "s1"]):
        for seeds in ("", " , ", "3..1"):
            with pytest.raises(SystemExit) as exc:
                main(argv + ["--seeds", seeds])
            assert str(exc.value) == (f"v2xloop {argv[0]}: --seeds: must name at "
                                      f"least one seed, got {seeds.strip()!r}")
    with pytest.raises(SystemExit, match="scenario_ids must not be empty"):
        main(["sweep", "--grid", str(grid), "--scenarios", "", "--seeds", "1"])


def test_report_on_episode_dir(tmp_path, capsys):
    out = tmp_path / "ep"
    main(["run", "--scenario", "s1", "--seed", "4", "--out", str(out)])
    capsys.readouterr()
    assert main(["report", "--in", str(out)]) == 0
    assert "episode s1 seed=4" in capsys.readouterr().out


def test_report_rejects_empty_dir(tmp_path):
    with pytest.raises(SystemExit):
        main(["report", "--in", str(tmp_path)])


def test_replay_agreement_and_tamper_exit(tmp_path, capsys):
    out = tmp_path / "ep"
    main(["run", "--scenario", "s1", "--seed", "5", "--out", str(out)])
    capsys.readouterr()
    assert main(["replay", "--log", str(out)]) == 0
    assert "replay matches stored summary" in capsys.readouterr().out
    # corrupt one control value and replay again
    p = out / "logs" / "control.csv"
    lines = p.read_text().splitlines()
    cols = lines[0].split(",")
    row = lines[5].split(",")
    row[cols.index("brake")] = "1"
    lines[5] = ",".join(row)
    p.write_text("\n".join(lines) + "\n")
    assert main(["replay", "--log", str(out)]) == 1
    assert "REPLAY MISMATCH" in capsys.readouterr().out


def test_replay_rerun_matches_a_fresh_run_and_names_an_edit(tmp_path, capsys):
    # s2 at seed 3 tells an exact scenario.json from one rounded to nine
    # significant digits
    out = tmp_path / "ep"
    main(["run", "--scenario", "s2", "--seed", "3", "--out", str(out)])
    capsys.readouterr()
    assert main(["replay", "--log", str(out), "--rerun"]) == 0
    assert "rerun of s2 seed=3 matches" in capsys.readouterr().out
    # one cell of one row edited
    p = out / "logs" / "vehicle.csv"
    lines = p.read_text().split("\n")
    row = lines[7].split(",")
    row[lines[0].split(",").index("speed")] = "99"
    lines[7] = ",".join(row)
    p.write_text("\n".join(lines))
    assert main(["replay", "--log", str(out / "logs"), "--rerun"]) == 1
    text = capsys.readouterr().out
    assert "RERUN MISMATCH of s2 seed=3 at vehicle.csv line 8 column speed: " in text


def test_replay_rerun_of_a_batch_episode_and_of_a_bare_log(tmp_path, capsys):
    out = tmp_path / "batch"
    main(["batch", "--scenario", "s1", "--seeds", "1,2", "--out", str(out)])
    capsys.readouterr()
    # the batch's scenario.json sits one level up
    assert main(["replay", "--log", str(out / "seed-0002"), "--rerun"]) == 0
    assert "rerun of s1 seed=2 matches" in capsys.readouterr().out
    (out / "scenario.json").unlink()
    with pytest.raises(SystemExit, match="v2xloop replay: .* scenario.json"):
        main(["replay", "--log", str(out / "seed-0002"), "--rerun"])


def test_replay_of_an_incomplete_log_directory_exits_with_one_line(tmp_path):
    out = tmp_path / "ep"
    main(["run", "--scenario", "s1", "--seed", "5", "--out", str(out)])
    (out / "logs" / "episode.csv").unlink()
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--log", str(out)])
    message = str(exc.value)
    assert message.startswith("v2xloop replay: ") and "missing episode.csv" in message
    assert "\n" not in message


def test_replay_of_a_header_only_episode_csv_exits_with_one_line(tmp_path):
    out = tmp_path / "ep"
    main(["run", "--scenario", "s1", "--seed", "5", "--out", str(out)])
    episode = out / "logs" / "episode.csv"
    episode.write_text(episode.read_text().splitlines()[0] + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--log", str(out)])
    message = str(exc.value)
    assert message.startswith("v2xloop replay: ") and "episode.csv holds no episode row" in message
    assert "\n" not in message


@pytest.mark.parametrize("name, damage, message", [
    ("control.csv", lambda lines: lines.__setitem__(0, lines[0].replace("brake", "brakes")),
     "control.csv, line 1: header column 5 is 'brakes', expected 'brake'"),
    ("control.csv", lambda lines: lines.__setitem__(3, "abc" + lines[3][1:]),
     "control.csv, line 4, column tick: cannot read 'abc' as int"),
    ("meta.json", lambda lines: lines.remove('  "route_length": 84.0,'),
     "meta.json: missing key 'route_length'"),
], ids=["foreign-header", "damaged-cell", "meta-key-missing"])
def test_replay_of_a_foreign_or_damaged_table_exits_with_one_line(tmp_path, name, damage,
                                                                  message):
    out = tmp_path / "ep"
    main(["run", "--scenario", "s1", "--seed", "5", "--out", str(out)])
    p = out / "logs" / name
    lines = p.read_text().splitlines()
    damage(lines)
    p.write_text("\n".join(lines) + "\n")
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--log", str(out)])
    text = str(exc.value)
    assert text.startswith("v2xloop replay: ") and text.endswith(message)
    assert "\n" not in text


@pytest.mark.parametrize("damage, message", [
    (lambda meta: meta["metrics"].update(paranoia=1.0),
     "meta.json: metrics: unknown key 'paranoia'"),
    (lambda meta: meta.update(metrics=3), "meta.json: metrics: expected an object, got int"),
    (lambda meta: meta["metrics"].pop("tau_safety"),
     "meta.json: metrics: missing key 'tau_safety'"),
    (lambda meta: meta["hazards"].append({"id": "hz-0", "x": 62.0, "y": 50.4}),
     "meta.json: hazards[0]: missing key 'kind'"),
], ids=["metrics-unknown-key", "metrics-not-object", "metrics-key-missing",
        "hazard-without-kind"])
def test_replay_of_a_damaged_meta_block_exits_with_one_line(tmp_path, damage, message):
    out = tmp_path / "ep"
    main(["run", "--scenario", "s1", "--seed", "5", "--out", str(out)])
    path = out / "logs" / "meta.json"
    meta = read_json(path)
    damage(meta)
    write_json(path, meta)
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--log", str(out)])
    text = str(exc.value)
    assert text.startswith("v2xloop replay: ") and text.endswith(message)
    assert "\n" not in text


@pytest.mark.parametrize("rerun, document, message", [
    (False, 3, "meta.json: expected an object, got int"),
    (True, 3, "meta.json: expected an object, got int"),
    (False, {"hazards": 5}, "meta.json: hazards: expected a list, got int"),
    (False, {"hazards": [5]}, "meta.json: hazards[0]: expected an object, got int"),
    (True, {"seed": "abc"}, "meta.json: seed: expected a non-negative integer, got 'abc'"),
    (True, {"seed": 1.7}, "meta.json: seed: expected a non-negative integer, got 1.7"),
    (True, {"seed": True}, "meta.json: seed: expected a non-negative integer, got True"),
    (True, {"seed": -1}, "meta.json: seed: expected a non-negative integer, got -1"),
    (False, {"dt": "x"}, "meta.json: dt: expected a number, got 'x'"),
    (False, {"hazards": [{"kind": "debris", "x": "abc", "y": 50.0}]},
     "meta.json: hazards[0].x: expected a number, got 'abc'"),
], ids=["not-object", "not-object-rerun", "hazards-not-list", "hazard-not-object",
        "seed-text", "seed-float", "seed-bool", "seed-negative", "dt-text",
        "hazard-x-text"])
def test_replay_of_a_malformed_meta_json_exits_with_one_line(tmp_path, capsys, rerun,
                                                             document, message):
    out = tmp_path / "ep"
    main(["run", "--scenario", "s1", "--seed", "5", "--out", str(out)])
    capsys.readouterr()
    path = out / "logs" / "meta.json"
    if isinstance(document, dict):
        document = {**read_json(path), **document}
    write_json(path, document)
    with pytest.raises(SystemExit) as exc:
        main(["replay", "--log", str(out)] + ["--rerun"] * rerun)
    text = str(exc.value)
    assert text.startswith("v2xloop replay: ") and text.endswith(message)
    assert "\n" not in text
    # refused before any episode ran
    assert capsys.readouterr().out == ""


@pytest.fixture(scope="module")
def written_runs(tmp_path_factory):
    """An s1 episode, batch and sweep directory, written once for the
    damaged-results cases, which each damage a copy."""
    root = tmp_path_factory.mktemp("runs")
    (root / "grid.json").write_text(json.dumps({"k_p": [0.4, 0.6]}))
    main(["run", "--scenario", "s1", "--seed", "5", "--out", str(root / "ep")])
    main(["batch", "--scenario", "s1", "--seeds", "1,2", "--out", str(root / "batch")])
    main(["sweep", "--grid", str(root / "grid.json"), "--scenarios", "s1",
          "--seeds", "1", "--out", str(root / "sweep")])
    return root


@pytest.mark.parametrize("command, run, name, damage, message", [
    ("replay", "ep", "summary.json", lambda d: {"scenario_id": "s1", "seed": 1},
     "missing key 'termination'"),
    ("replay", "ep", "summary.json", lambda d: [1], "expected an object, got list"),
    ("replay", "ep", "summary.json", lambda d: {**d, "metrics": 3},
     "metrics: expected an object, got int"),
    ("report", "ep", "summary.json", lambda d: {"scenario_id": "s1", "seed": 1},
     "missing key 'termination'"),
    ("report", "ep", "summary.json", lambda d: {**d, "sim_time": "1.0"},
     "sim_time: expected a number, got '1.0'"),
    ("report", "batch", "batch.json", lambda d: {k: v for k, v in d.items() if k != "aggregate"},
     "missing key 'aggregate'"),
    ("report", "batch", "batch.json",
     lambda d: {**d, "episodes": [{"seed": 1, "metrics": {}}]},
     "episodes[0].metrics: missing key 'termination'"),
    ("report", "sweep", "pareto.json", lambda d: {k: v for k, v in d.items() if k != "seeds"},
     "missing key 'seeds'"),
    ("report", "sweep", "pareto.json",
     lambda d: {**d, "knee": {**d["knee"], "objectives": ["x"]}},
     "knee.objectives[0]: expected a number, got 'x'"),
], ids=["replay-summary-key-missing", "replay-summary-not-object",
        "replay-summary-metrics-not-object", "report-summary-key-missing",
        "report-summary-sim-time-text", "batch-aggregate-missing",
        "batch-episode-termination-missing", "pareto-seeds-missing",
        "pareto-knee-objective-text"])
def test_a_damaged_results_file_exits_with_one_line(tmp_path, capsys, written_runs,
                                                    command, run, name, damage, message):
    # each of these exited with a KeyError or TypeError traceback
    out = tmp_path / run
    shutil.copytree(written_runs / run, out)
    write_json(out / name, damage(read_json(out / name)))
    capsys.readouterr()
    flag = "--log" if command == "replay" else "--in"
    with pytest.raises(SystemExit) as exc:
        main([command, flag, str(out)])
    assert str(exc.value) == f"v2xloop {command}: {out / name}: {message}"
    # replay reports its metrics first; report prints nothing
    assert command == "replay" or capsys.readouterr().out == ""


def test_a_json_syntax_error_exits_with_one_line_naming_the_file(tmp_path, capsys):
    out = tmp_path / "ep"
    main(["run", "--scenario", "s1", "--seed", "5", "--out", str(out)])
    capsys.readouterr()
    broken = tmp_path / "broken.json"
    broken.write_text("{\n")
    meta = out / "logs" / "meta.json"
    meta.write_text("{\n")
    for argv, path in (
            (["replay", "--log", str(out)], meta),
            (["replay", "--log", str(out), "--rerun"], meta),
            (["run", "--config", str(broken), "--seed", "1"], broken),
            (["sweep", "--grid", str(broken), "--scenarios", "s1", "--seeds", "1"], broken)):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        text = str(exc.value)
        assert text.startswith(f"v2xloop {argv[0]}: {path}: Expecting property name"), text
        assert "\n" not in text
    assert capsys.readouterr().out == ""


def test_sweep_cli(tmp_path, capsys):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"look_ahead": [4.0, 6.0]}))
    out = tmp_path / "sweep"
    rc = main(["sweep", "--grid", str(grid), "--scenarios", "s1",
               "--seeds", "1", "--out", str(out)])
    assert rc == 0
    assert "frontier size" in capsys.readouterr().out
    assert len(read_csv(out / "sweep.csv", SWEEP_COLS)["config_id"]) == 2
    assert main(["report", "--in", str(out)]) == 0
    assert "hypervolume" in capsys.readouterr().out


def test_sweep_rejects_unknown_scenario(tmp_path):
    grid = tmp_path / "grid.json"
    grid.write_text(json.dumps({"look_ahead": [4.0]}))
    with pytest.raises(SystemExit):
        main(["sweep", "--grid", str(grid), "--scenarios", "s9",
              "--seeds", "1"])


@pytest.mark.parametrize("grid, message", [
    ({"k_p": 0.5}, "grid.k_p: must be a non-empty list of finite numbers, got 0.5"),
    ({"k_p": "ab"}, "grid.k_p: must be a non-empty list of finite numbers, got 'ab'"),
    ({"k_p": []}, "grid.k_p: must be a non-empty list of finite numbers, got []"),
    ({"look_ahead": [4.0, -1]},
     "grid.look_ahead: -1 on s1: look_ahead_min: must be finite and > 0, got -0.5"),
    ({"k_i": [0.1]},
     "grid.k_i: unknown field, expected one of ['k_p', 'look_ahead', 'tau_risk']"),
    ({"k_p": [0.4, 0.4]}, "grid.k_p: repeats the value 0.4"),
], ids=["scalar", "string", "empty", "refused-by-spec", "unused-by-spec", "repeated"])
def test_sweep_rejects_a_bad_grid_with_one_line(tmp_path, grid, message):
    # a scalar was a TypeError traceback, a string crashed mid-episode, an
    # empty list swept nothing, a value the spec refuses ran episodes first,
    # a poll interval on a spec that does not poll went into sweep.csv (the
    # integral gain, like the poll interval, is no knob now: no spec varies
    # it) and a repeated value wrote two rows of one point, both on the
    # frontier
    path = tmp_path / "grid.json"
    path.write_text(json.dumps(grid))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--grid", str(path), "--scenarios", "s1", "--seeds", "1"])
    assert str(exc.value) == f"v2xloop sweep: {message}"


def test_sweep_refuses_repeated_scenario_ids(tmp_path):
    path = tmp_path / "grid.json"
    path.write_text(json.dumps({"k_p": [0.4]}))
    with pytest.raises(SystemExit) as exc:
        main(["sweep", "--grid", str(path), "--scenarios", "s1,s1,s2", "--seeds", "1"])
    assert str(exc.value) == "v2xloop sweep: scenario_ids must be distinct"


def test_a_missing_input_file_exits_with_one_line(tmp_path):
    missing = tmp_path / "nope.json"
    for argv in (["sweep", "--grid", str(missing), "--scenarios", "s1", "--seeds", "1"],
                 ["run", "--config", str(missing)]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        message = str(exc.value)
        assert message.startswith(f"v2xloop {argv[0]}: ") and str(missing) in message
        assert "No such file" in message and "\n" not in message


def test_ablation_is_refused_with_a_config_document(tmp_path):
    # the document's spec ran with V2X on: --ablation was ignored
    cfg = tmp_path / "scenario.json"
    write_json(cfg, spec_to_dict(build_s1()))
    with pytest.raises(SystemExit, match="^--ablation applies to a built-in --scenario"):
        main(["run", "--config", str(cfg), "--ablation", "--seed", "1"])
