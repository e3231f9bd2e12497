"""Colluding roadside stations forge road-closure claims; the gate holds.

Three of ten stations are compromised and keep announcing a closure just
ahead of the ego. With the quorum gate on, their 3 supporting stations never
reach the 2f+1 = 7 threshold, so the forgeries stay pending and the drive
completes. With the gate off, the first forged claim is believed, the planner
loses its corridor, and the run degrades to a safety stop.

Run:  python3 demos/forged_claims.py [seed]
"""

import sys
import tempfile
from collections import Counter
from pathlib import Path

from v2xloop.harness import LOG_COLUMNS, run_episode
from v2xloop.logio import read_csv, rows
from v2xloop.scenarios import build_s4


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    spec = build_s4(True)
    byz = sorted(spec.stations.byzantine_ids)
    print(f"population: {len(spec.stations.stations)} stations, "
          f"compromised: {', '.join(byz)}")
    print(f"gate: n={len(spec.stations.stations)} f={spec.gate.f} "
          f"threshold={spec.gate.threshold():.0f} veto eta={spec.gate.eta}")

    with tempfile.TemporaryDirectory() as tmp:
        for tag, enabled in (("gate on", True), ("gate off", False)):
            out = Path(tmp) / tag.replace(" ", "-")
            res = run_episode(build_s4(enabled), seed, out)
            decisions = rows(read_csv(out / "logs" / "gate.csv", LOG_COLUMNS["gate"]))
            events = rows(read_csv(out / "logs" / "events.csv", LOG_COLUMNS["events"]))
            finals = [r for r in events if r["final"]]
            truth = {r["event_id"]: r["is_true"] for r in finals}
            outcomes = Counter()
            for r in decisions:
                label = "true" if truth.get(r["event_id"]) else "forged"
                verdict = "accepted" if r["accepted"] else r["reason"]
                outcomes[(label, verdict)] += 1
            m = res.metrics
            print(f"--- {tag} ---")
            for (label, verdict), n in sorted(outcomes.items()):
                print(f"  {label:6s} claims {verdict}: {n}")
            fpr = "-" if m.false_positive_rate is None \
                else f"{m.false_positive_rate:.2f}"
            print(f"  termination={m.termination} collisions={m.collisions} "
                  f"false-positive rate={fpr} "
                  f"progress={m.progress_fraction:.2f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
