"""Put the checkout's `src/` and the benchmark's own modules on the path."""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
for p in (ROOT / "src", ROOT / "perfbench"):
    if str(p) not in sys.path:
        sys.path.insert(0, str(p))


import json  # noqa: E402

import pytest  # noqa: E402


@pytest.fixture(scope="session")
def benchmark_json():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)
