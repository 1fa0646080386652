"""Regenerate reference.json: the sweep's pinned architectural results.

    python3 perfbench/make_reference.py

Runs every sweep program on the ``slow`` reference tier (the seed
interpreter, not the backend under test) for the default seed at the
sweep scale, and at the anchor scale whose totals the project's
roadmap quotes. Slow: the anchor sweep retires 42M instructions at
about 0.1 MIPS, so the two scales run in two processes.
"""

from __future__ import annotations

import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import common  # noqa: E402

sys.path.insert(0, common.SRC)

import sweep  # noqa: E402

# The scale whose totals the roadmap quotes as the sweep's anchor.
ANCHOR_SCALE = 8.0


def _slow(scale: float) -> dict:
    return sweep.architectural(0, scale, tier="slow")


def main() -> int:
    scales = (sweep.SCALE, ANCHOR_SCALE)
    with ProcessPoolExecutor(max_workers=2) as pool:
        pinned, anchor = pool.map(_slow, scales)
    record = {
        "tier": "slow",
        "sweep": {"seed": 0, "scale": sweep.SCALE, "programs": pinned},
        "anchor": {
            "seed": 0, "scale": ANCHOR_SCALE, "programs": anchor,
            "cycles": sum(r["cycles"] for r in anchor.values()),
            "instructions": sum(r["instructions"]
                                for r in anchor.values())},
    }
    with open(sweep.REFERENCE, "w", encoding="utf-8") as handle:
        json.dump(record, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print(f"anchor: {record['anchor']['cycles']} cycles, "
          f"{record['anchor']['instructions']} instructions")
    return 0


if __name__ == "__main__":
    sys.exit(main())
