"""One faults-combined iteration in a fresh process.

Usage: python3 perfbench/campaign_child.py SEED TRACED

Prints one JSON line: the iteration, with ``ready`` (``time.monotonic()``
once the library is imported) in place of the set-up time, which the
parent measures from the moment it started this process.
"""

import dataclasses
import json
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402  (needs src/ on sys.path)


def main() -> None:
    seed, traced = int(sys.argv[1]), sys.argv[2] == "1"
    ready = time.monotonic()
    report = dataclasses.asdict(workloads.campaign_iteration(seed, traced))
    del report["setup_s"]
    report["ready"] = ready
    print(json.dumps(report))


if __name__ == "__main__":
    main()
