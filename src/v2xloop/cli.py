"""Command-line front end: run, batch, sweep, report, replay."""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import tempfile
from dataclasses import asdict, fields
from pathlib import Path

from .harness import replay, run_batch, run_episode, run_sweep
from .logio import ANY, NUMBER, _round_floats, check_keys, read_json
from .metrics import EpisodeMetrics
from .scenarios import (SCENARIO_IDS, build_scenario, spec_from_dict,
                        spec_to_dict)

# ablation switch per scenario: the flag each builder exposes
_ABLATIONS = {"s2": "v2x_enabled", "s3": "updates_enabled", "s4": "gate_enabled"}


def parse_seeds(text: str) -> list[int]:
    """'1..30' inclusive range, or comma-separated values, or one seed; any
    other text is a ValueError naming --seeds and the text."""
    text = text.strip()
    lo, dots, hi = text.partition("..")
    try:
        seeds = (list(range(int(lo), int(hi) + 1)) if dots
                 else [int(v) for v in text.split(",") if v.strip() != ""])
    except ValueError:
        raise ValueError(f"--seeds: expected a range like 1..30 or seeds like 1,2,5, "
                         f"got {text!r}") from None
    if not seeds:
        raise ValueError(f"--seeds: must name at least one seed, got {text!r}")
    return seeds


# what report and replay read of the results files
SUMMARY_KEYS = {"scenario_id": ANY, "seed": ANY, "termination": ANY,
                "sim_time": NUMBER, "metrics": {}}
BATCH_KEYS = {"scenario_id": ANY,
              "aggregate": {"episodes": ANY, "completion_rate": NUMBER,
                            "collision_episodes": ANY},
              "episodes": [{"seed": ANY, "metrics": {
                  "termination": (str,), "lateral_rmse": ANY, "ttc_min": ANY,
                  "false_positive_rate": ANY, "false_negative_rate": ANY}}]}
PARETO_KEYS = {"scenario_ids": ANY, "seeds": ANY, "frontier": [(str,)],
               "knee": (dict, type(None)), "discarded_collided": ANY}
KNEE_KEYS = {"config_id": ANY, "objectives": [NUMBER]}


def _load_spec(args):
    if args.config is not None:
        if getattr(args, "ablation", False):
            raise SystemExit("--ablation applies to a built-in --scenario, not to --config")
        spec = spec_from_dict(read_json(args.config))
        if args.scenario is not None and spec.scenario_id != args.scenario:
            raise SystemExit(f"--config is for {spec.scenario_id!r}, "
                             f"--scenario says {args.scenario!r}")
        return spec
    if args.scenario is None:
        raise SystemExit("need --scenario or --config")
    kwargs = {}
    if getattr(args, "ablation", False):
        if args.scenario not in _ABLATIONS:
            raise SystemExit(f"{args.scenario} has no ablation switch")
        kwargs[_ABLATIONS[args.scenario]] = False
    return build_scenario(args.scenario, **kwargs)


def _fmt_value(v) -> str:
    if v is None:
        return "-"
    if isinstance(v, bool):
        return "yes" if v else "no"
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return f"{v:.4g}"
    return str(v)


def _print_metrics(metrics: dict) -> None:
    """One line per EpisodeMetrics field, in declaration order."""
    order = [f.name for f in fields(EpisodeMetrics)]
    width = max(len(k) for k in order)
    for key in order:
        if key in metrics:
            print(f"  {key:<{width}}  {_fmt_value(metrics[key])}")


def _write_spec(path: Path, spec) -> None:
    """scenario.json with every float as Python writes it, which reads back
    exactly: the document rebuilds the spec that ran, as `replay --rerun`
    needs (write_json's nine significant digits would not)."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(spec_to_dict(spec), indent=2, sort_keys=True) + "\n")


def cmd_run(args) -> int:
    spec = _load_spec(args)
    out = Path(args.out) if args.out else None
    result = run_episode(spec, args.seed, out)
    if out is not None:
        _write_spec(out / "scenario.json", spec)
    print(f"{spec.scenario_id} seed={args.seed} -> {result.metrics.termination} "
          f"at t={result.metrics.sim_time:.2f}s")
    _print_metrics(result.summary["metrics"])
    if out is not None:
        print(f"outputs in {out}")
    return 0


def cmd_batch(args) -> int:
    spec = _load_spec(args)
    seeds = parse_seeds(args.seeds)
    out = Path(args.out) if args.out else None
    results, payload = run_batch(spec, seeds, out)
    if out is not None:
        _write_spec(out / "scenario.json", spec)
    agg = payload["aggregate"]
    print(f"{spec.scenario_id}: {len(results)} episodes")
    print(f"  completion_rate      {agg['completion_rate']:.3f}")
    print(f"  collision_episodes   {agg['collision_episodes']}")
    for key in ("lateral_rmse", "v2x_reaction_ms", "update_activation_s",
                "false_positive_rate", "false_negative_rate", "mota"):
        cell = agg.get(key)
        if isinstance(cell, dict) and cell.get("mean") is not None:
            print(f"  {key:<20} {cell['mean']:.4g} (sd {cell['sd']:.3g})")
    if out is not None:
        print(f"outputs in {out}")
    return 0


def cmd_sweep(args) -> int:
    grid = read_json(args.grid)
    scenario_ids = [s.strip() for s in args.scenarios.split(",") if s.strip()]
    seeds = parse_seeds(args.seeds)
    out = Path(args.out) if args.out else None
    result = run_sweep(grid, scenario_ids, seeds, out)
    print(f"swept {len(result.points)} configs over {scenario_ids} x {len(seeds)} seeds")
    print(f"  frontier size        {len(result.frontier)}")
    print(f"  discarded (collided) {result.discarded_collided}")
    if result.knee is not None:
        print(f"  knee                 {result.knee.config_id} "
              f"J={tuple(round(v, 4) for v in result.knee.objectives)}")
    if result.hypervolume is not None:
        print(f"  hypervolume          {result.hypervolume:.4f}")
    if out is not None:
        print(f"outputs in {out}")
    return 0


def cmd_report(args) -> int:
    root = Path(args.in_dir)
    if (root / "summary.json").exists():
        summary = read_json(root / "summary.json", SUMMARY_KEYS)
        print(f"episode {summary['scenario_id']} seed={summary['seed']}: "
              f"{summary['termination']} at t={summary['sim_time']:.2f}s")
        _print_metrics(summary["metrics"])
        return 0
    if (root / "batch.json").exists():
        payload = read_json(root / "batch.json", BATCH_KEYS)
        agg = payload["aggregate"]
        print(f"batch {payload['scenario_id']}: {agg['episodes']} episodes, "
              f"completion_rate={agg['completion_rate']:.3f}, "
              f"collisions={agg['collision_episodes']}")
        print(f"{'seed':>6}  {'termination':<14} {'rmse':>8} {'ttc':>8} "
              f"{'fpr':>6} {'fnr':>6}")
        for ep in payload["episodes"]:
            m = ep["metrics"]
            print(f"{ep['seed']:>6}  {m['termination']:<14} "
                  f"{_fmt_value(m['lateral_rmse']):>8} "
                  f"{_fmt_value(m['ttc_min']):>8} "
                  f"{_fmt_value(m['false_positive_rate']):>6} "
                  f"{_fmt_value(m['false_negative_rate']):>6}")
        return 0
    if (root / "pareto.json").exists():
        payload = read_json(root / "pareto.json", PARETO_KEYS)
        knee = payload["knee"]
        if knee is not None:
            check_keys(knee, KNEE_KEYS, root / "pareto.json", "knee")
        print(f"sweep over {payload['scenario_ids']} seeds={payload['seeds']}")
        print(f"  frontier: {', '.join(payload['frontier'])}")
        if knee is not None:
            print(f"  knee: {knee['config_id']} "
                  f"J={[round(v, 4) for v in knee['objectives']]}")
        print(f"  hypervolume: {_fmt_value(payload.get('hypervolume'))}")
        print(f"  discarded_collided: {payload['discarded_collided']}")
        return 0
    raise SystemExit(f"no summary.json, batch.json, or pareto.json under {root}")


def _first_difference(stored: Path, rerun: Path) -> str | None:
    """Where the files of directory `rerun` first differ from those of
    `stored` (file, line and, in a table, column), None if they are equal."""
    names = sorted(p.name for p in stored.iterdir())
    fresh = sorted(p.name for p in rerun.iterdir())
    if names != fresh:
        return f"the file lists: stored {names}, rerun {fresh}"
    for name in names:
        old, new = (stored / name).read_bytes(), (rerun / name).read_bytes()
        if old == new:
            continue
        old_lines, new_lines = old.decode().split("\n"), new.decode().split("\n")
        line, a, b = next((n, a, b) for n, (a, b) in enumerate(
            itertools.zip_longest(old_lines, new_lines), 1) if a != b)
        where = f"{name} line {line}"
        if name.endswith(".csv") and a is not None and b is not None:
            # no cell is quoted, so two different lines differ in a cell
            header, a_cells, b_cells = (text.split(",") for text in (old_lines[0], a, b))
            col = next(i for i in range(max(len(a_cells), len(b_cells)))
                       if a_cells[i:i + 1] != b_cells[i:i + 1])
            where += f" column {header[col] if col < len(header) else col + 1}"
        return f"{where}: stored {a!r}, rerun {b!r}"
    return None


def _rerun(root: Path) -> int:
    """Re-simulate an episode directory from its scenario.json and the seed
    in its meta.json, and compare the new logs/ with the stored one byte for
    byte."""
    if root.name == "logs":
        root = root.parent
    # a batch keeps scenario.json beside its seed-NNNN episode directories
    doc = next((d / "scenario.json" for d in (root, root.parent)
                if (d / "scenario.json").is_file()), None)
    if doc is None or not (root / "logs" / "meta.json").is_file():
        raise ValueError(f"{root} is not an episode directory with logs/meta.json "
                         "and a scenario.json beside it or one level up")
    spec = spec_from_dict(read_json(doc))
    where = root / "logs" / "meta.json"
    seed = read_json(where, {"seed": ANY})["seed"]
    # a float or a bool would run some other seed
    if type(seed) is not int or seed < 0:
        raise ValueError(f"{where}: seed: expected a non-negative integer, got {seed!r}")
    with tempfile.TemporaryDirectory() as tmp:
        run_episode(spec, seed, tmp)
        diff = _first_difference(root / "logs", Path(tmp) / "logs")
    if diff is not None:
        print(f"RERUN MISMATCH of {spec.scenario_id} seed={seed} at {diff}")
        return 1
    print(f"rerun of {spec.scenario_id} seed={seed} matches {root / 'logs'} byte for byte")
    return 0


def cmd_replay(args) -> int:
    root = Path(args.log)
    if args.rerun:
        return _rerun(root)
    metrics = replay(root)
    print(f"replayed {root}")
    _print_metrics(asdict(metrics))
    summary_path = root / "summary.json"
    if not summary_path.exists() and root.name == "logs":
        summary_path = root.parent / "summary.json"
    if summary_path.exists():
        stored = read_json(summary_path, SUMMARY_KEYS)["metrics"]
        recomputed = json.loads(json.dumps(_round_floats(asdict(metrics))))
        if recomputed == stored:
            print("replay matches stored summary")
            return 0
        # a metric missing on either side differs too
        diffs = {k for k in stored.keys() | recomputed.keys()
                 if k not in stored or k not in recomputed or stored[k] != recomputed[k]}
        print(f"REPLAY MISMATCH in fields: {sorted(diffs)}")
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="v2xloop",
        description="Closed-loop V2X fusion, gating, and replanning testbed")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_opts(p):
        p.add_argument("--scenario", choices=SCENARIO_IDS, default=None)
        p.add_argument("--config", default=None,
                       help="JSON scenario document (overrides --scenario)")
        p.add_argument("--ablation", action="store_true",
                       help="disable the built-in scenario's subject capability "
                            "(s2: V2X, s3: updates, s4: gate)")

    p_run = sub.add_parser("run", help="run one seeded episode")
    add_scenario_opts(p_run)
    p_run.add_argument("--seed", type=int, default=0)
    p_run.add_argument("--out", default=None, help="output directory")
    p_run.set_defaults(func=cmd_run)

    p_batch = sub.add_parser("batch", help="run one scenario over many seeds")
    add_scenario_opts(p_batch)
    p_batch.add_argument("--seeds", required=True, help="e.g. 1..30 or 1,2,5")
    p_batch.add_argument("--out", default=None)
    p_batch.set_defaults(func=cmd_batch)

    p_sweep = sub.add_parser("sweep", help="grid-sweep operating points")
    p_sweep.add_argument("--grid", required=True,
                         help="JSON file: {field: [values, ...], ...}")
    p_sweep.add_argument("--scenarios", default="s1,s2",
                         help="comma-separated scenario ids")
    p_sweep.add_argument("--seeds", default="0..4")
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(func=cmd_sweep)

    p_report = sub.add_parser("report", help="summarize a results directory")
    p_report.add_argument("--in", dest="in_dir", required=True)
    p_report.set_defaults(func=cmd_report)

    p_replay = sub.add_parser("replay", help="recompute metrics from logs")
    p_replay.add_argument("--log", required=True,
                          help="episode output directory (or its logs/)")
    p_replay.add_argument("--rerun", action="store_true",
                          help="re-simulate the episode from its scenario.json and "
                               "seed, and compare the logs byte for byte")
    p_replay.set_defaults(func=cmd_replay)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        # bad input (seed list, grid, scenario document, a file that cannot
        # be read): message, not traceback
        raise SystemExit(f"v2xloop {args.command}: {exc}") from None


if __name__ == "__main__":
    sys.exit(main())
