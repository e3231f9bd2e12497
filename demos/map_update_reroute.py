"""A road segment closes mid-drive; an over-the-air map version reroutes.

The route leads through a segment that the map server marks closed in
version 2, published while the ego is already moving. The update client
polls on a fixed cadence, draws a download latency, and activates the new
version at the next tick boundary; activation invalidates the current plan
and forces an immediate replan onto the detour. Without updates the ego
drives to the stale corridor, meets the physical closure, and stops.

Run:  python3 demos/map_update_reroute.py [seed]
"""

import sys
import tempfile
from pathlib import Path

from v2xloop.harness import LOG_COLUMNS, run_episode
from v2xloop.logio import read_csv, rows
from v2xloop.scenarios import build_s3


def main() -> int:
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 4
    with tempfile.TemporaryDirectory() as tmp:
        for tag, enabled in (("updates on", True), ("updates off", False)):
            out = Path(tmp) / tag.replace(" ", "-")
            res = run_episode(build_s3(enabled), seed, out)
            ups = rows(read_csv(out / "logs" / "updates.csv", LOG_COLUMNS["updates"]))
            plans = rows(read_csv(out / "logs" / "plans.csv", LOG_COLUMNS["plans"]))
            print(f"--- {tag} ---")
            for r in ups:
                if r["action"] == "poll":
                    print(f"  t={r['t']:5.2f}s polled version {r['version_id']}"
                          f", download completes at t={r['value']:.2f}s")
                else:
                    print(f"  t={r['t']:5.2f}s activated version "
                          f"{r['version_id']}")
            for r in plans:
                print(f"  t={r['t']:5.2f}s plan cause={r['cause']} "
                      f"on map version {r['planned_on_version']}")
            m = res.metrics
            act = "-" if m.update_activation_s is None \
                else f"{m.update_activation_s:.2f}s after the poll"
            print(f"  termination={m.termination} "
                  f"progress={m.progress_fraction:.2f} activation={act}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
