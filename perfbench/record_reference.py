#!/usr/bin/env python3
"""Record the outputs the benchmark checks its runs against.

    python3 perfbench/record_reference.py --size toy --seeds 0-9
    python3 perfbench/record_reference.py --size full --seeds 0-19 \
        --workload citation-train

For each workload and seed this runs the first batch untraced and stores
its outputs (the answers with positive mass of each query, or the
citation epoch losses) in perfbench/reference.json, next to what is
there already.  Record only from code whose outputs are known good.
"""

from __future__ import annotations

import argparse
import json
import sys

from run import REFERENCE, SRC


def seed_range(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--size", choices=("full", "toy"), required=True)
    ap.add_argument("--seeds", type=seed_range, required=True)
    ap.add_argument("--workload", action="append")
    args = ap.parse_args(argv)
    sys.path.insert(0, str(SRC))
    from workloads import SIZES, run_workload

    refs = json.loads(REFERENCE.read_text()) if REFERENCE.is_file() else {}
    for wl in args.workload or list(SIZES):
        for seed in args.seeds:
            run = run_workload(wl, seed, 0, args.size, False, None)
            if run.failed:
                print(f"error\t{wl} seed {seed}: {run.problems}",
                      file=sys.stderr)
                return 1
            refs.setdefault(wl, {}).setdefault(args.size, {})[str(seed)] = \
                run.outputs
            REFERENCE.write_text(json.dumps(refs, indent=1, sort_keys=True)
                                 + "\n")
            print(f"recorded\t{wl}\t{args.size}\tseed {seed}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
