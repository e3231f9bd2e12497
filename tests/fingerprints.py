"""Golden fingerprints of the replay contract, and the script that regenerates them.

Every entry is the SHA-256 of one file a run writes (or of one built-in
spec's document), grouped under a key naming the run:

- `episode/<scenario>/seed-<n>`: the log tree and summary of s1-s4 at seeds 1-2,
  and of the s1 curve variant (`s1-curve`) at seed 1;
- `ablation/<arm>`: the s2 no-V2X, s3 no-update and s4 no-gate arms at seed 1;
- `recovery/s2-no-v2x/seed-32`: s2 without V2X at seed 32, whose failed
  `risk_threshold` replan stops the ego until a `recovery` replan succeeds;
- `sweep`, `sweep/seed-2`: `sweep.csv` and `pareto.json` of the perfbench
  sweep grid at seeds 1 and 2;
- `batch/s2`: an s2 batch over seeds 1-3, its `batch.json` and log trees;
- `spec/<name>`: `spec_to_dict` of the eight built-in specs.

`timing.csv` holds wall-clock planner times, so it is never fingerprinted.

Regenerate after a change that moves log bytes on purpose, and list the
changed keys in CHANGES.md:

    PYTHONPATH=src python tests/fingerprints.py
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np

from v2xloop.harness import run_batch, run_episode, run_sweep
from v2xloop.scenarios import build_scenario, spec_to_dict

GOLDEN_FILE = Path(__file__).resolve().parent / "fingerprints.json"
# the grid of perfbench's `sweep` workload
SWEEP_GRID = {"look_ahead": [3.0, 6.0], "k_p": [0.4, 0.8], "tau_risk": [2.0, 3.0]}
BUILT_IN_SPECS = {
    "s1": ("s1", {}), "s1-curve": ("s1", {"route_shape": "curve"}),
    "s2": ("s2", {}), "s2-no-v2x": ("s2", {"v2x_enabled": False}),
    "s3": ("s3", {}), "s3-no-updates": ("s3", {"updates_enabled": False}),
    "s4": ("s4", {}), "s4-no-gate": ("s4", {"gate_enabled": False}),
}
ABLATION_ARMS = ("s2-no-v2x", "s3-no-updates", "s4-no-gate")


def _sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def tree_fingerprints(root: Path) -> dict[str, str]:
    """Relative path -> SHA-256 of every file under root but timing.csv."""
    return {p.relative_to(root).as_posix(): _sha256(p.read_bytes())
            for p in sorted(root.rglob("*"))
            if p.is_file() and p.name != "timing.csv"}


def _spec(name: str):
    scenario_id, kwargs = BUILT_IN_SPECS[name]
    return build_scenario(scenario_id, **kwargs)


def compute(work: Path) -> dict[str, dict[str, str]]:
    """Run the fingerprint set with its outputs under `work`."""
    out: dict[str, dict[str, str]] = {}
    for sid in ("s1", "s2", "s3", "s4"):
        spec = _spec(sid)
        for seed in (1, 2):
            key = f"episode/{sid}/seed-{seed}"
            run_episode(spec, seed, work / key)
            out[key] = tree_fingerprints(work / key)
    key = "episode/s1-curve/seed-1"
    run_episode(_spec("s1-curve"), 1, work / key)
    out[key] = tree_fingerprints(work / key)
    for arm in ABLATION_ARMS:
        key = f"ablation/{arm}"
        run_episode(_spec(arm), 1, work / key)
        out[key] = tree_fingerprints(work / key)
    key = "recovery/s2-no-v2x/seed-32"
    run_episode(_spec("s2-no-v2x"), 32, work / key)
    out[key] = tree_fingerprints(work / key)
    run_sweep(SWEEP_GRID, ("s1", "s2"), [1], work / "sweep")
    out["sweep"] = tree_fingerprints(work / "sweep")
    run_sweep(SWEEP_GRID, ("s1", "s2"), [2], work / "sweep-seed-2")
    out["sweep/seed-2"] = tree_fingerprints(work / "sweep-seed-2")
    run_batch(_spec("s2"), [1, 2, 3], work / "batch" / "s2")
    out["batch/s2"] = tree_fingerprints(work / "batch" / "s2")
    for name in BUILT_IN_SPECS:
        doc = json.dumps(spec_to_dict(_spec(name)), sort_keys=True)
        out[f"spec/{name}"] = {"spec_to_dict": _sha256(doc.encode())}
    return out


def differences(golden: dict, got: dict) -> list[str]:
    """One line per key whose files differ, naming those files."""
    lines = []
    for key in sorted(set(golden) | set(got)):
        want, have = golden.get(key, {}), got.get(key, {})
        changed = sorted(f for f in set(want) | set(have) if want.get(f) != have.get(f))
        if changed:
            lines.append(f"{key}: {', '.join(changed)}")
    return lines


def main() -> int:
    with tempfile.TemporaryDirectory() as tmp:
        fingerprints = compute(Path(tmp))
    with open(GOLDEN_FILE, "w") as fh:
        json.dump({"numpy": np.__version__, "fingerprints": fingerprints}, fh,
                  indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {len(fingerprints)} keys to {GOLDEN_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
