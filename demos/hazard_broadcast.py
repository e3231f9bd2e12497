"""Side-by-side run of the shared-hazard scenario with and without V2X.

The ego approaches a stalled vehicle parked past a blind placement. With the
radio on, roadside units broadcast the hazard long before the onboard sensor
can see it; the gate accepts the claim and the planner slows and swings wide.
With the radio off the ego reacts only once its own sensor confirms the
obstacle. Prints the reaction timeline and the safety margins of both arms.

Run:  python3 demos/hazard_broadcast.py [seed]
"""

import sys
import tempfile
from pathlib import Path

from v2xloop.harness import LOG_COLUMNS, run_episode
from v2xloop.logio import read_csv, rows
from v2xloop.scenarios import build_s2


def describe(tag: str, out: Path) -> None:
    decisions = rows(read_csv(out / "logs" / "gate.csv", LOG_COLUMNS["gate"]))
    events = rows(read_csv(out / "logs" / "events.csv", LOG_COLUMNS["events"]))
    plans = rows(read_csv(out / "logs" / "plans.csv", LOG_COLUMNS["plans"]))
    kinds = {r["event_id"]: r["kind"] for r in events}
    accepted = [r for r in decisions if r["accepted"]]
    print(f"--- {tag} ---")
    if accepted:
        first = accepted[0]
        kind = kinds.get(first["event_id"], "?")
        print(f"  first accepted claim: {first['event_id']} ({kind}) "
              f"at t={first['t']:.2f}s with support {first['support']}")
    else:
        print("  no claims accepted")
    for row in plans:
        print(f"  plan at t={row['t']:.2f}s cause={row['cause']} "
              f"expansions={row['expansions']}")


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        arms = {}
        for tag, enabled in (("V2X on", True), ("V2X off", False)):
            out = root / tag.replace(" ", "-")
            arms[tag] = run_episode(build_s2(enabled), seed, out)
            describe(tag, out)

        print("--- outcome ---")
        for tag, res in arms.items():
            m = res.metrics
            react = ("-" if m.v2x_reaction_ms is None
                     else f"{m.v2x_reaction_ms:.0f} ms")
            ttc = "never closed in" if m.ttc_min == float("inf") \
                else f"{m.ttc_min:.2f} s"
            print(f"  {tag:8s} termination={m.termination:12s} "
                  f"collisions={m.collisions} min TTC={ttc:16s} "
                  f"reaction={react}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
