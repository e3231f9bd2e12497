"""The benchmark's workloads: what one round runs, and how it is checked.

A round is one pass over a workload's scenario mix at one episode seed:

- `reroute`: s3 (a map update closes the route) with logs written and
  replayed. One knowledge_change replan dominates its host time.
- `cooperative`: s2 (hazard broadcast) then s4 (forged claims, gate on),
  both with logs written and replayed. Per-tick layers dominate.
- `sweep`: `run_sweep` over a small look_ahead x k_p x tau_risk grid on
  s1,s2, writing sweep.csv and pareto.json; then the knee configuration is
  run on s2 with logs, as a user does to inspect the chosen operating
  point, and replayed.

Every written episode must replay to its in-run metrics. Each round returns
SHA-256 fingerprints of what it wrote, so reruns and traced runs can be
compared byte for byte.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import shutil
import time
from dataclasses import dataclass, field
from pathlib import Path

from v2xloop import harness, pareto, scenarios

REFERENCE_SEED = 1
SWEEP_GRID = {"look_ahead": [3.0, 6.0], "k_p": [0.4, 0.8], "tau_risk": [2.0, 3.0]}
SWEEP_SCENARIOS = ("s1", "s2")
REFERENCE_FILE = Path(__file__).resolve().parent / "reference.json"


def episode_seed(workload_seed: int, round_index: int) -> int:
    """Episode seeds of one run: a block of 1000 per workload seed."""
    if workload_seed < 0:
        raise ValueError("workload seed must be non-negative")
    return workload_seed * 1000 + round_index


def tree_sha256(path: Path) -> str:
    """Fingerprint of a file, or of every file under a directory."""
    path = Path(path)
    h = hashlib.sha256()
    files = [path] if path.is_file() else sorted(p for p in path.rglob("*") if p.is_file())
    for p in files:
        h.update(p.relative_to(path).as_posix().encode() if p != path else b"")
        h.update(b"\0")
        h.update(p.read_bytes())
        h.update(b"\0")
    return h.hexdigest()


def load_reference() -> dict:
    with open(REFERENCE_FILE) as fh:
        return json.load(fh)


@dataclass
class RoundResult:
    """What one round did, and what went wrong in it."""

    # (kind, scenario id, wall seconds) in order, kind "episode", "replay"
    # or "probe"; probes are taken only when `probing` is set
    samples: list[tuple[str, str, float]] = field(default_factory=list)
    ticks: int = 0
    fingerprints: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: list[str] = field(default_factory=list)
    probing: bool = False
    probe_wall_s: float = 0.0

    def probe(self) -> None:
        if self.probing:
            t0 = time.perf_counter()
            self.samples.append(("probe", "", host_probe_s()))
            self.probe_wall_s += time.perf_counter() - t0


def host_probe_s() -> float:
    """Median wall time of a fixed kernel of interpreter work and small
    allocations, the mix episodes are made of: how fast the host runs this
    process right now."""
    times = []
    # a collection would time the program's heap, not the host
    gc.disable()
    try:
        for _ in range(3):
            t0 = time.perf_counter()
            acc, rows = 0.0, []
            for i in range(16000):
                acc += math.hypot(i, acc % 7.0)
                if i % 4 == 0:
                    rows.append({"i": i, "xy": (acc, i * 0.5)})
            times.append(time.perf_counter() - t0)
    finally:
        gc.enable()
    return sorted(times)[1]


class EpisodeClock:
    """Wall time and ticks of every `harness.run_episode` call, including the
    ones `run_sweep` makes, by rebinding the name for the clock's lifetime.
    A probing round also probes the host before each episode and at the end."""

    def __init__(self, rnd: RoundResult):
        self.rnd = rnd
        self.original = None

    def __enter__(self):
        self.original = original = harness.run_episode
        rnd = self.rnd

        def timed(spec, *args, **kwargs):
            rnd.probe()
            t0 = time.perf_counter()
            result = original(spec, *args, **kwargs)
            rnd.samples.append(("episode", spec.scenario_id, time.perf_counter() - t0))
            rnd.ticks += result.summary["counters"]["ticks"]
            return result

        harness.run_episode = timed
        return self

    def __exit__(self, *exc):
        harness.run_episode = self.original
        self.rnd.probe()


def run_logged_episode(rnd: RoundResult, label: str, spec, seed: int,
                       out: Path, replays: int = 1) -> None:
    """Run with logs, replay, and fingerprint the log tree under `label`."""
    rnd.attempted += 1
    result = harness.run_episode(spec, seed, out)
    replayed = []
    for _ in range(replays):
        # `v2xloop replay` runs in a fresh process: do not time the
        # collection of the episode's garbage as part of the replay
        gc.collect()
        rnd.probe()
        t0 = time.perf_counter()
        replayed.append(harness.replay(out))
        rnd.samples.append(("replay", spec.scenario_id, time.perf_counter() - t0))
    if any(m != result.metrics for m in replayed):
        rnd.failures.append(f"{label} seed {seed}: replay differs from run")
    rnd.fingerprints[label] = tree_sha256(out / "logs")


class Workload:
    name = ""
    # host seconds of one round at the baseline, sizing the traced pass
    nominal_round_s = 1.0

    def build(self) -> None:
        """Build the specs the rounds use; part of set-up time."""

    def play(self, rnd: RoundResult, seed: int, out: Path) -> None:
        raise NotImplementedError

    def rerun(self, rnd: RoundResult, seed: int, out: Path) -> None:
        """Run the round's first logged episode again, for the byte check."""
        raise NotImplementedError

    def run_round(self, seed: int, out: Path, rerun: bool = False,
                  probe: bool = False) -> RoundResult:
        rnd = RoundResult(probing=probe)
        out.mkdir(parents=True, exist_ok=True)
        with EpisodeClock(rnd):
            try:
                (self.rerun if rerun else self.play)(rnd, seed, out)
            except Exception as exc:  # a failed episode is counted, not fatal
                rnd.attempted = max(rnd.attempted, 1)
                rnd.failures.append(f"{self.name} seed {seed}: "
                                    f"{type(exc).__name__}: {exc}")
        shutil.rmtree(out, ignore_errors=True)
        return rnd


class Reroute(Workload):
    name = "reroute"
    nominal_round_s = 3.5

    def build(self) -> None:
        self.s3 = scenarios.build_scenario("s3")

    def play(self, rnd, seed, out):
        # one written log per round: replay it three times for a p50
        run_logged_episode(rnd, "s3", self.s3, seed, out / "s3", replays=3)

    rerun = play


class Cooperative(Workload):
    name = "cooperative"
    nominal_round_s = 1.4

    def build(self) -> None:
        self.s2 = scenarios.build_scenario("s2")
        self.s4 = scenarios.build_scenario("s4")

    def play(self, rnd, seed, out):
        run_logged_episode(rnd, "s2", self.s2, seed, out / "s2")
        run_logged_episode(rnd, "s4", self.s4, seed, out / "s4")

    def rerun(self, rnd, seed, out):
        run_logged_episode(rnd, "s2", self.s2, seed, out / "s2")


class Sweep(Workload):
    name = "sweep"
    nominal_round_s = 6.0

    def build(self) -> None:
        self.configs = {c.config_id: c for c in pareto.config_grid(SWEEP_GRID)}
        self.s2 = scenarios.build_scenario("s2")
        self.knee_of: dict[int, str] = {}

    def play(self, rnd, seed, out):
        rnd.attempted += 1
        result = harness.run_sweep(SWEEP_GRID, SWEEP_SCENARIOS, [seed], out)
        for name in ("sweep.csv", "pareto.json"):
            rnd.fingerprints[name] = tree_sha256(out / name)
        with open(out / "pareto.json") as fh:
            written = json.load(fh)
        rows = (out / "sweep.csv").read_text().count("\n") - 1
        if result.knee is None or rows != len(self.configs) \
                or written["knee"]["config_id"] not in written["frontier"]:
            rnd.failures.append(f"sweep seed {seed}: inconsistent frontier artefacts")
            return
        self.knee_of[seed] = result.knee.config_id
        self.rerun(rnd, seed, out)

    def rerun(self, rnd, seed, out):
        config = self.configs[self.knee_of[seed]]
        spec = scenarios.apply_configuration(self.s2, config)
        # one written log per round: replay it three times for a p50
        run_logged_episode(rnd, "knee", spec, seed, out / "knee", replays=3)


WORKLOADS = {w.name: w for w in (Reroute, Cooperative, Sweep)}


def reference_episodes(out: Path) -> RoundResult:
    """s1-s4 at the reference seed with logs, as the traced-run check runs them."""
    rnd = RoundResult()
    with EpisodeClock(rnd):
        for sid in ("s1", "s2", "s3", "s4"):
            spec = scenarios.build_scenario(sid)
            run_logged_episode(rnd, sid, spec, REFERENCE_SEED, out / sid)
    shutil.rmtree(out, ignore_errors=True)
    return rnd


def logs_changed(fingerprints: dict[str, str], reference: dict[str, str]) -> int:
    """How many fingerprints differ from the reference ones."""
    return sum(1 for k, v in fingerprints.items() if reference.get(k) != v)


def log_counts(logs_dir: Path) -> dict:
    """Exact counts of one written episode: ticks, plans, rows and bytes."""
    import csv

    def rows(name):
        with open(logs_dir / f"{name}.csv", newline="") as fh:
            return list(csv.DictReader(fh))

    return {
        "ticks": int(rows("episode")[0]["ticks"]),
        "plans": [{"cause": r["cause"], "expansions": int(r["expansions"]),
                   "success": r["success"] == "1"} for r in rows("plans")],
        "tables": {name: {"rows": len(rows(name)),
                          "bytes": (logs_dir / f"{name}.csv").stat().st_size}
                   for name in harness.LOG_NAMES},
    }
