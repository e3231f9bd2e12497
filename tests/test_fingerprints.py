"""The replay contract in tier-1: runs reproduce their golden log bytes."""

import json

import numpy as np

from fingerprints import GOLDEN_FILE, compute, differences


def test_runs_reproduce_the_golden_fingerprints(tmp_path):
    with open(GOLDEN_FILE) as fh:
        golden = json.load(fh)
    diff = differences(golden["fingerprints"], compute(tmp_path))
    if diff and golden["numpy"] != np.__version__:
        diff.append(f"(golden file made with numpy {golden['numpy']}, "
                    f"this run uses {np.__version__})")
    assert not diff, "log bytes differ from tests/fingerprints.json:\n" + "\n".join(diff)
