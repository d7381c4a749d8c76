"""One pass of a workload: run its job list in this fresh process.

    python3 perfbench/worker.py JOBS.json RESULT.json [--trace SPANS.json]

Jobs run one at a time, on one thread, through ``jbkit.cli.run(argv)``
with stdout and stderr captured; caches persist from job to job as in
one library session.  Each job is timed on its own.  With ``--trace``
the layer wrappers of ``tracer.py`` are installed first and the spans
are written to SPANS.json after the loop.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time


def run_jobs(jobs, cli, tracer=None):
    """Run the jobs in order, timing each on its own."""
    results = []
    for job in jobs:
        if tracer is not None:
            tracer.job = job["id"]
            traced_start = tracer.clock()
        out, err = io.StringIO(), io.StringIO()
        error = None
        t = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                rc = cli.run(list(job["argv"]))
            except Exception as e:  # an escaping exception fails the job, not the pass
                rc, error = None, "%s: %s" % (type(e).__name__, e)
        seconds = time.perf_counter() - t
        results.append(
            {
                "id": job["id"],
                "cmd": job["cmd"],
                "seconds": seconds,
                "traced_seconds": None if tracer is None else tracer.clock() - traced_start,
                "rc": rc,
                "error": error,
                "stdout": out.getvalue(),
                "stderr": err.getvalue(),
            }
        )
    return results


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("jobs")
    p.add_argument("result")
    p.add_argument("--trace", metavar="SPANS", default=None)
    args = p.parse_args(argv)
    with open(args.jobs) as fh:
        jobs = json.load(fh)["jobs"]

    from jbkit import cli

    tracer = None
    if args.trace:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
    results = run_jobs(jobs, cli, tracer)
    record = {
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "jobs": results,
    }
    if tracer is not None:
        tracing.final_counts(tracer)
        tracer.counts["cli.output_bytes"] = sum(len(r["stdout"].encode()) for r in results)
        tracer.counts["jobs"] = len(results)
        record["trace"] = tracer.summary(sum(r["traced_seconds"] for r in results))
        record["shapes"] = tracer.shapes
        tracer.write_spans(args.trace)
    with open(args.result, "w") as fh:
        json.dump(record, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
