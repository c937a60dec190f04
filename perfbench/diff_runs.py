#!/usr/bin/env python3
"""Compare the behaviour recorded by two sets of benchmark runs.

    python3 perfbench/diff_runs.py OLD/.bench_out/results NEW/.bench_out/results

Every result record lists, per operation, the SHA-256 of each output file
and the simulated statistics.  Operations are matched on (workload,
seed); for each seed found in both sets the digests and statistics must
be equal.  Exits 1 on any difference, 0 otherwise.  Timings are not
compared here; BENCHMARK.json holds the bounds they are judged by.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path


def behaviour(results: Path) -> dict[tuple[str, int], dict]:
    seen: dict[tuple[str, int], dict] = {}
    for path in sorted(results.glob("*.json")):
        record = json.loads(path.read_text(encoding="utf-8"))
        for op in record["ops"]:
            if op["files"]:
                seen.setdefault((record["workload"], op["seed"]), {"files": op["files"], "stats": op["stats"]})
    return seen


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    old, new = (behaviour(Path(a)) for a in argv)
    common = sorted(set(old) & set(new))
    differing = [key for key in common if old[key] != new[key]]
    for workload, seed in differing:
        print(f"{workload} seed {seed}: outputs or simulated statistics differ")
    print(f"{len(common)} operation(s) matched, {len(differing)} differ")
    return 1 if differing or not common else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
