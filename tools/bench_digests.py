#!/usr/bin/env python3
"""Compare the output digests of two benchmark records of one workload and seed.

    python3 tools/bench_digests.py A B

``A`` and ``B`` are result records that ``bench/run.py`` writes to
``bench/out/results/``. Their ``digests`` map every distinct call
(``kind/panel`` or ``kind/panel/year``) to what its first repetition gave:
the SHA-256 of each output file of a CLI call, the verdicts of a structure
operation, or null for a call that failed. Records of two versions of the
program, run with the same workload, seed and seconds, hold the same calls,
so their digests show whether the outputs stayed byte-identical.

The tool prints how many calls each record holds and lists every call whose
digest differs, with the files or verdicts that differ, and every call that
only one record holds. It exits with status 1 if there is any such call, 2
if the records are of different workloads or seeds, and 0 otherwise.
"""

import argparse
import json
import sys


def call_order(name):
    """Sort key of a call name: its kind, then its panel and year as numbers."""
    kind, *numbers = name.split("/")
    return kind, [int(n) for n in numbers]


def differences(a, b):
    """What differs between two digests of one call, or "" if nothing does."""
    if a == b:
        return ""
    if a is None or b is None:
        return "failed in " + ("A" if a is None else "B")
    return ", ".join(key for key in sorted(a.keys() | b.keys()) if a.get(key) != b.get(key))


def compare(path_a, path_b):
    """Print the comparison of two records; return the exit status."""
    records = []
    for path in (path_a, path_b):
        with open(path, encoding="utf-8") as handle:
            records.append(json.load(handle))
    a, b = records
    for side, path, record in (("A", path_a, a), ("B", path_b, b)):
        print(f"{side} = {path} (workload {record['workload']}, seed {record['seed']})")
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print("error: the records are of different workloads or seeds")
        return 2
    da, db = a["digests"], b["digests"]
    both = sorted(da.keys() & db.keys(), key=call_order)
    differing = [(name, differences(da[name], db[name])) for name in both]
    differing = [(name, what) for name, what in differing if what]
    only_a = sorted(da.keys() - db.keys(), key=call_order)
    only_b = sorted(db.keys() - da.keys(), key=call_order)
    print(f"calls: A {len(da)}, B {len(db)}, both {len(both)}; differing {len(differing)}, "
          f"only in A {len(only_a)}, only in B {len(only_b)}")
    for name, what in differing:
        print(f"differs: {name}: {what}")
    for side, names in (("A", only_a), ("B", only_b)):
        for name in names:
            print(f"only in {side}: {name}")
    return 1 if differing or only_a or only_b else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("a", metavar="A", help="result record of one run")
    parser.add_argument("b", metavar="B", help="result record of the other run")
    args = parser.parse_args(argv)
    return compare(args.a, args.b)


if __name__ == "__main__":
    sys.exit(main())
