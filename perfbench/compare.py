"""Compare benchmark records of two versions of jbkit on one workload.

    python3 perfbench/compare.py --base A1.json A2.json ... --new B1.json B2.json ...

Each record is a ``record-trace*.json`` written by run.py.  The compare
refuses (exit 1) when the records differ in workload or trace mode, when
any record has a failed job, or when their problem sizes differ: job
count, per-job sizes and, for traced records, every count metric and
matrix shape.  A smaller workload therefore cannot pass as a speedup.
Otherwise it prints, per metric, the median of each side, the change,
and for end-to-end metrics whether the change stays within the bound
fixed in BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def _load(path):
    with open(path) as fh:
        return json.load(fh)


def refusal(records):
    """The reason these records cannot be compared, or None."""
    first = records[0]
    for rec in records:
        if (rec["workload"], rec["trace"]) != (first["workload"], first["trace"]):
            return "records mix workloads or trace modes"
        if rec["failures"] or rec["problems"]:
            return "record of seed %d has failures" % rec["seed"]
        for key in ("jobs", "job_sizes", "counts", "shapes"):
            if key in first["sizes"] and rec["sizes"].get(key) != first["sizes"][key]:
                return "problem sizes differ (%s)" % key
    return None


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--base", nargs="+", required=True)
    p.add_argument("--new", nargs="+", required=True)
    args = p.parse_args(argv)
    base = [_load(path) for path in args.base]
    new = [_load(path) for path in args.new]
    reason = refusal(base + new)
    if reason:
        print("refused: %s" % reason, file=sys.stderr)
        return 1
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    print("%s, %d base and %d new records" % (base[0]["workload"], len(base), len(new)))
    for name, meta in base[0]["metrics"].items():
        b = statistics.median(rec["metrics"][name]["value"] for rec in base)
        n = statistics.median(rec["metrics"][name]["value"] for rec in new)
        change = (n - b) / b if b else 0.0
        verdict = ""
        if name in bounds:
            worse = change if bounds[name]["better"] == "lower" else -change
            verdict = "regression" if worse > bounds[name]["bound"] else "within bound"
        print("  %-40s %12.6g -> %12.6g %s  %+7.1f%%  %s"
              % (name, b, n, meta["unit"], 100 * change, verdict))
    return 0


if __name__ == "__main__":
    sys.exit(main())
