"""One benchmark process: a set-up probe, a timed run or a traced run.

run.py starts this script in a fresh interpreter with BLAS/OpenMP threads
capped at 1 and the checkout's `src/` first on the path, and passes the
monotonic time at which it spawned the process. The last line printed is
one JSON object for run.py to read.

    python3 perfbench/child.py {setup,measure,trace} --workload NAME
        --seed N --seconds S --spawned-at T --out DIR
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path


def parse_args(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("mode", choices=("setup", "measure", "trace"))
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--spawned-at", type=float, required=True)
    p.add_argument("--out", required=True)
    return p.parse_args(argv)


class Tally:
    """Checked operations and the failures among them."""

    def __init__(self):
        self.attempted = 0
        self.failures: list[str] = []

    def add(self, rnd) -> None:
        self.attempted += rnd.attempted
        self.failures += rnd.failures

    def fail(self, message: str) -> None:
        self.failures.append(message)

    def as_dict(self) -> dict:
        return {"attempted": max(self.attempted, 1),
                "failed": min(len(self.failures), max(self.attempted, 1)),
                "failures": self.failures[:10]}


def compare_rounds(tally: Tally, what: str, first, second) -> None:
    for label, fp in second.fingerprints.items():
        if first.fingerprints.get(label) != fp:
            tally.fail(f"{what}: {label} differs")


def measure(wl, seed: int, seconds: float, out: Path) -> dict:
    from workloads import (REFERENCE_SEED, episode_seed, load_reference,
                           logs_changed)

    tally = Tally()
    # the reference round also warms caches and lazy set-up before timing
    ref = wl.run_round(REFERENCE_SEED, out / "reference")
    tally.add(ref)
    changed = logs_changed(ref.fingerprints, load_reference()["fingerprints"])

    rounds = []
    deadline = time.perf_counter() + seconds
    while not rounds or time.perf_counter() < deadline:
        t0 = time.perf_counter()
        rnd = wl.run_round(episode_seed(seed, len(rounds)),
                           out / f"round-{len(rounds)}", probe=True)
        wall_s = time.perf_counter() - t0 - rnd.probe_wall_s
        tally.add(rnd)
        rounds.append({"wall_s": wall_s, "ticks": rnd.ticks,
                       "samples": rnd.samples})

    # a fingerprint equal to the stored one shows the reference round
    # reproduced the bytes of an earlier run; when logs changed on purpose,
    # run the round's first logged episode again and compare bytes here
    if changed:
        again = wl.run_round(REFERENCE_SEED, out / "rerun", rerun=True)
        tally.add(again)
        compare_rounds(tally, "rerun", ref, again)
    return {"rounds": rounds, "logs_changed": changed,
            **tally.as_dict()}


def trace(wl, seed: int, seconds: float, out: Path, report_dir: Path) -> dict:
    import layers
    from workloads import (episode_seed, load_reference, logs_changed,
                           reference_episodes)

    tally = Tally()
    tracer = layers.Tracer(layers.targets())
    with tracer:
        refs = reference_episodes(out / "reference")
    tally.add(refs)
    changed = logs_changed(refs.fingerprints, load_reference()["fingerprints"])
    tracer.clear()

    # the same rounds untraced, then traced: the wall difference is the
    # tracing overhead, and their outputs must be byte-identical
    n_rounds = max(1, round(seconds / 2.0 / wl.nominal_round_s))
    seeds = [episode_seed(seed, i) for i in range(n_rounds)]
    t0 = time.perf_counter()
    plain = [wl.run_round(s, out / f"plain-{s}") for s in seeds]
    untraced_s = time.perf_counter() - t0
    with tracer:
        wl.build()
        t0 = time.perf_counter()
        traced = [wl.run_round(s, out / f"traced-{s}") for s in seeds]
        traced_s = time.perf_counter() - t0
    for s, a, b in zip(seeds, plain, traced):
        tally.add(a)
        tally.add(b)
        compare_rounds(tally, f"traced seed {s}", a, b)

    metrics, report = layers.layer_metrics(tracer, traced_s)
    metrics["trace.overhead_ms"] = (traced_s - untraced_s) * 1000.0
    metrics["trace.overhead_pct"] = 100.0 * (traced_s - untraced_s) / untraced_s
    metrics["check.logs_changed"] = changed

    stem = f"trace-{wl.name}-seed{seed}"
    report_dir.mkdir(parents=True, exist_ok=True)
    tracer.write_spans(report_dir / f"{stem}-spans.csv.gz")
    with open(report_dir / f"{stem}.json", "w") as fh:
        json.dump({"workload": wl.name, "seed": seed, "rounds": n_rounds,
                   "traced_wall_s": traced_s, "untraced_wall_s": untraced_s,
                   "metrics": metrics, "report": report}, fh, indent=1,
                  sort_keys=True)
    return {"metrics": metrics, "report": report, "rounds": n_rounds,
            "traced_wall_s": traced_s, "untraced_wall_s": untraced_s,
            "spans": len(tracer.span_name), **tally.as_dict()}


def main(argv=None) -> int:
    args = parse_args(argv)
    root = Path(__file__).resolve().parent.parent
    import numpy
    import v2xloop
    if Path(v2xloop.__file__).resolve().parent != root / "src" / "v2xloop":
        print(f"v2xloop imported from {v2xloop.__file__}, not the checkout",
              file=sys.stderr)
        return 2
    from workloads import WORKLOADS, host_probe_s

    wl = WORKLOADS[args.workload]()
    wl.build()
    setup_s = time.monotonic() - args.spawned_at
    out = Path(args.out)
    result: dict = {"setup_s": setup_s, "setup_probe_s": host_probe_s(),
                    "numpy": numpy.__version__}
    if args.mode == "measure":
        result.update(measure(wl, args.seed, args.seconds, out))
    elif args.mode == "trace":
        result.update(trace(wl, args.seed, args.seconds, out, out.parent))
    # ru_maxrss is in KiB on Linux
    result["peak_rss_kb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
