"""Record golden.json: the digest of every operation's output for the
default seed, after each output has passed its independent check.

Usage (from the root of a checkout):  python3 benchmarks/record_golden.py

Run it only on a commit whose outputs are known to be right; the benchmark
then fails any later commit whose output for these inputs differs.
"""

import json
import sys

import oracle
import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.SRC))
    golden: dict[str, str] = {}
    for name in workloads.BUILDERS:
        wl = workloads.build(name, run.DEFAULT_SEED, run.ROOT)
        for op in dict((op.key, op) for op in wl.ops).values():
            text = op.render(op.run(None))
            problem = op.check(text)
            if problem is not None:
                print(f"{name} {op.key}: {problem}", file=sys.stderr)
                return 1
            golden[op.key] = oracle.digest(text)
        print(f"{name}: {len(golden)} digests so far")
    with open(oracle.GOLDEN_PATH, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
