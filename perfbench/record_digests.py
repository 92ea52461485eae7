"""Record the expected chosen-id digests in perfbench/expected.json.

For each workload and seed this generates the inputs, sets up once and runs
the workload's first `digest_queries` test queries through `Selector.select`,
exactly as the first rounds of a benchmark run do, and stores the digest of
the chosen ids. Run
it again only when a change is meant to alter which examples are selected:

    python3 perfbench/record_digests.py --seeds 0-19
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import sys

if __name__ == "__main__":
    _root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path[0:0] = [_root, os.path.join(_root, "src")]

from perfbench.run import EXPECTED_PATH, OUT_DIR, WORKLOADS, Bench, chosen_digest, generate_inputs  # noqa: E402
from perfbench.tracing import Tracer  # noqa: E402


def digest_for(name: str, seed: int) -> str:
    work_dir = os.path.join(OUT_DIR, f"digest-{name}-{seed}-{os.getpid()}")
    try:
        data_dir = os.path.join(work_dir, "data")
        generate_inputs(WORKLOADS[name], seed, data_dir)
        bench = Bench(WORKLOADS[name], data_dir, work_dir, Tracer())
        bench.setup()
        queries = bench.test.examples[:WORKLOADS[name].digest_queries]
        return chosen_digest([bench.selector.select(q) for q in queries])
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="0-19", help="inclusive range, e.g. 0-19")
    parser.add_argument("--workload", action="append", choices=sorted(WORKLOADS),
                        help="default: every workload")
    args = parser.parse_args()
    lo, _, hi = args.seeds.partition("-")
    seeds = range(int(lo), int(hi or lo) + 1)
    try:
        with open(EXPECTED_PATH, encoding="utf-8") as f:
            expected = json.load(f)
    except FileNotFoundError:
        expected = {}
    for name in args.workload or sorted(WORKLOADS):
        for seed in seeds:
            expected.setdefault(name, {})[str(seed)] = digest_for(name, seed)
            print(name, seed, expected[name][str(seed)], flush=True)
            with open(EXPECTED_PATH, "w", encoding="utf-8") as f:
                json.dump(expected, f, indent=1, sort_keys=True)
                f.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
