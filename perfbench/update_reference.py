"""Rewrite reference.json: fingerprints and exact counts at the reference seed.

    PYTHONPATH=src python3 perfbench/update_reference.py

Run it from the root of a checkout, only when a change alters logs on
purpose, and say so in CHANGES.md. The file holds a SHA-256 per log tree of
s1-s4, of the sweep workload's sweep.csv and pareto.json and of its knee
episode, all at the reference seed, plus each episode's ticks, plans and
rows and bytes per table.
"""

from __future__ import annotations

import json
import shutil
from pathlib import Path

from workloads import (REFERENCE_FILE, REFERENCE_SEED, Sweep, harness,
                       log_counts, scenarios, tree_sha256)


def main() -> None:
    tmp = Path(".perfbench_out") / "reference"
    fingerprints, counts = {}, {}
    for sid in ("s1", "s2", "s3", "s4"):
        out = tmp / sid
        harness.run_episode(scenarios.build_scenario(sid), REFERENCE_SEED, out)
        fingerprints[sid] = tree_sha256(out / "logs")
        counts[sid] = log_counts(out / "logs")
    sweep = Sweep()
    sweep.build()
    rnd = sweep.run_round(REFERENCE_SEED, tmp / "sweep")
    if rnd.failures:
        raise SystemExit(f"sweep reference failed: {rnd.failures}")
    fingerprints.update(rnd.fingerprints)
    shutil.rmtree(tmp)
    payload = {"seed": REFERENCE_SEED, "fingerprints": fingerprints,
               "counts": counts}
    with open(REFERENCE_FILE, "w") as fh:
        json.dump(payload, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    main()
