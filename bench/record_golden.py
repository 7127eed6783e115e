"""Record the golden digests the benchmark checks its outputs against.

    python3 bench/record_golden.py --seeds 0 1

For each workload and seed this generates the inputs, runs one iteration
with ``--workers 1`` and stores the SHA-256 of every input and output file
in ``golden.json``.  Re-record only for a change that means to alter output
bytes, and say so in that change.
"""

from __future__ import annotations

import argparse
import json
import sys

import run


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", required=True)
    args = parser.parse_args(argv)
    sys.path.insert(0, run.SRC)
    from marketfacts import cli
    from workloads import WORKLOADS

    golden = run.load_golden()
    for name, workload_cls in WORKLOADS.items():
        for seed in args.seeds:
            with run.work_dir(name):
                bench = run.Bench(workload_cls(smoke=False), cli.main, seed, None)
                bench.iterate(1)
            if bench.reference is None:
                print("\n".join(bench.problems), file=sys.stderr)
                return 1
            golden.setdefault(name, {})[str(seed)] = {
                "inputs": bench.input_digests,
                "outputs": bench.reference,
            }
            print(f"{name} seed {seed}: {len(bench.reference)} output files")
    with open(run.GOLDEN, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
