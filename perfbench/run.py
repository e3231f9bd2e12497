"""v2xloop benchmark: one workload, timed end to end or traced per layer.

    python3 perfbench/run.py --workload {reroute,cooperative,sweep}
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from its `src/`.
Each process is a fresh interpreter with BLAS/OpenMP threads capped at 1,
running one episode after another on one thread (a closed loop).

--trace 0 times set-up in separate fresh interpreters and reports the
median, runs the workload for S seconds, and prints the end-to-end metrics
scaled to a reference host speed by a host probe taken next to every
sample (README.md says why), with the raw wall-clock values beside them.
--trace 1 rebinds the names callers use for each layer, runs a
fixed number of rounds untraced and then traced, and prints the per-layer
metrics; spans and a full report go to `.perfbench_out/`. Every run checks
replay, byte-identical reruns and, on traced runs, traced against untraced
output. The last line of standard output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("reroute", "cooperative", "sweep")
SETUP_PROBES = 7
# host probe time (workloads.host_probe_s) on the shared 2-vCPU x86-64 VM
# the benchmark was defined on, in its fast state; timings are scaled to
# this host speed
PROBE_REF_S = 0.005
DEADLINE_S = 175.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")

END_TO_END_UNITS = {"episodes_per_s": "1/s", "episode_s.p50": "s",
                    "ticks_per_s": "1/s", "replay_s.p50": "s", "setup_s": "s",
                    "peak_rss_mb": "MB"}


class BenchError(Exception):
    pass


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(root / "src"), env.get("PYTHONPATH", "")) if p)
    return env


def run_child(root: Path, mode: str, args, out: Path, deadline: float) -> dict:
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("out of time before starting a child")
    cmd = [sys.executable, str(HERE / "child.py"), mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--out", str(out),
           "--spawned-at", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=root, env=child_env(root),
                              capture_output=True, text=True, timeout=remaining)
    except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
        raise BenchError(f"{mode} child timed out") from exc
    if proc.returncode != 0:
        raise BenchError(f"{mode} child exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError(f"{mode} child printed nothing:\n{proc.stderr[-2000:]}")
    return json.loads(lines[-1])


def host_info() -> dict:
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "loadavg": list(os.getloadavg()), "machine": platform.machine()}


def scenario_p50(samples) -> float:
    """Mean over scenarios of each scenario's median, from (scenario, s)
    pairs: a workload mixing two scenarios of different cost has a
    two-cluster sample, whose own median falls between the clusters and
    jumps from run to run."""
    by_id: dict[str, list[float]] = {}
    for scenario_id, seconds in samples:
        by_id.setdefault(scenario_id, []).append(seconds)
    return statistics.fmean(statistics.median(v) for v in by_id.values())


def scaled_round(samples: list, scaled: bool) -> tuple[float, list]:
    """A round's mean host probe, and its episode and replay samples each
    scaled by PROBE_REF_S over the mean of the probes just before and just
    after it (raw when not `scaled`)."""
    probes = [(i, s) for i, (kind, _, s) in enumerate(samples) if kind == "probe"]
    out = []
    for i, (kind, sid, seconds) in enumerate(samples):
        if kind == "probe":
            continue
        before = [s for j, s in probes if j < i][-1:]
        after = [s for j, s in probes if j > i][:1]
        k = PROBE_REF_S / statistics.fmean(before + after) if scaled else 1.0
        out.append((kind, sid, seconds * k))
    return statistics.fmean(s for _, s in probes), out


def end_to_end(run: dict, setups: list[tuple[float, float]], scaled: bool) -> dict:
    """End-to-end values, raw or scaled to the reference host speed.

    Each episode and replay time is scaled by the host probes taken just
    before and after it, each round's wall time by the mean of the round's
    probes, and each set-up time by its own process's probe.
    """
    episodes, replays, wall_s, ticks = [], [], 0.0, 0
    for r in run["rounds"]:
        probe, samples = scaled_round(r["samples"], scaled)
        wall_s += r["wall_s"] * (PROBE_REF_S / probe if scaled else 1.0)
        ticks += r["ticks"]
        episodes += [(sid, s) for kind, sid, s in samples if kind == "episode"]
        replays += [(sid, s) for kind, sid, s in samples if kind == "replay"]
    if not episodes or not replays:
        raise BenchError("no episode completed")
    values = {
        "episodes_per_s": len(episodes) / wall_s,
        "episode_s.p50": scenario_p50(episodes),
        "ticks_per_s": ticks / sum(s for _, s in episodes),
        "replay_s.p50": scenario_p50(replays),
        "setup_s": statistics.median(
            s * (PROBE_REF_S / p if scaled else 1.0) for s, p in setups),
        "peak_rss_mb": run["peak_rss_kb"] / 1024.0,
    }
    return {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in values.items()}


def per_layer(run: dict) -> dict:
    with open(HERE.parent / "BENCHMARK.json") as fh:
        units = {m["name"]: m["unit"] for m in json.load(fh)["per_layer"]}
    return {k: {"value": run["metrics"][k], "unit": u} for k, u in units.items()}


def _sample_counts(rounds) -> dict[str, dict[str, int]]:
    out: dict[str, dict[str, int]] = {"episode": {}, "replay": {}, "probe": {}}
    for r in rounds:
        for kind, sid, _ in r["samples"]:
            out[kind][sid] = out[kind].get(sid, 0) + 1
    return out


def print_table(title: str, rows) -> None:
    print(title)
    for name, value, unit in rows:
        shown = "n/a" if value is None else f"{value:.6g}"
        print(f"  {name:<40} {shown:>14} {unit}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        p.error("--seed must be >= 0 and --seconds > 0")

    deadline = time.monotonic() + DEADLINE_S
    root = Path.cwd()
    if not (root / "src" / "v2xloop" / "__init__.py").is_file():
        print(f"no v2xloop package under {root / 'src'}; run from the root "
              "of a checkout", file=sys.stderr)
        return 2
    host = host_info()
    results = root / ".perfbench_out"
    results.mkdir(exist_ok=True)
    out = results / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            run = run_child(root, "trace", args, out, deadline)
            metrics = per_layer(run)
        else:
            # the first probe compiles bytecode and is discarded; the rest
            # sit on both sides of the timed run, so a slow spell of the
            # host during one of them does not set the median
            def probe() -> tuple[float, float]:
                r = run_child(root, "setup", args, out, deadline)
                return r["setup_s"], r["setup_probe_s"]

            probe()
            setups = [probe() for _ in range(SETUP_PROBES // 2)]
            run = run_child(root, "measure", args, out, deadline)
            setups += [probe() for _ in range(SETUP_PROBES - len(setups))]
            setups.append((run["setup_s"], run["setup_probe_s"]))
            metrics = end_to_end(run, setups, scaled=True)
            raw = end_to_end(run, setups, scaled=False)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(out, ignore_errors=True)

    host["numpy"] = run["numpy"]
    print(json.dumps({"host": host, "workload": args.workload, "seed": args.seed,
                      "trace": args.trace}))
    title = f"{args.workload} seed {args.seed}"
    if args.trace:
        print_table(title, [(k, m["value"], m["unit"]) for k, m in metrics.items()])
    else:
        print_table(f"{title}, scaled to the reference host speed (raw wall clock)",
                    [(k, m["value"], f"{m['unit']:<5} ({raw[k]['value']:.6g})")
                     for k, m in metrics.items()])
    if args.trace:
        rep = run["report"]
        print_table("report only (idle on some workload)",
                    [(k, v, "ms" if k.endswith("ms") else "ratio")
                     for k, v in rep.items() if not isinstance(v, dict)])
        print_table("self-time shares of traced wall",
                    [(k, v, "%") for k, v in rep["shares_pct"].items()])
        print(f"  rounds {run['rounds']}, spans {run['spans']}, traced "
              f"{run['traced_wall_s']:.3f} s, untraced {run['untraced_wall_s']:.3f} s")
    else:
        rounds = run["rounds"]
        counts = _sample_counts(rounds)
        probes = [s for r in rounds for kind, _, s in r["samples"] if kind == "probe"]
        print(f"  rounds {len(rounds)}, ticks {sum(r['ticks'] for r in rounds)}; "
              f"samples per scenario: episode {counts['episode']}, replay "
              f"{counts['replay']}; host probe p50 "
              f"{statistics.median(probes) * 1000:.3f} ms (reference "
              f"{PROBE_REF_S * 1000:.3f} ms)")
        print(f"  error_rate {run['failed'] / run['attempted']:.6g} "
              f"({run['failed']}/{run['attempted']}), "
              f"logs_changed {run['logs_changed']}")
    for failure in run["failures"]:
        print(f"  FAIL {failure}")

    record = {"correct": run["failed"] == 0, "attempted": run["attempted"],
              "failed": run["failed"], "metrics": metrics}
    with open(results / "results.jsonl", "a") as fh:
        fh.write(json.dumps({"host": host, "workload": args.workload,
                             "seed": args.seed, "trace": args.trace,
                             **record, "raw": run}) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
