"""Run one workload of the jbkit benchmark, check its outputs, print its metrics.

    python3 perfbench/run.py --workload series --seed 1 --seconds 44 --trace 0

Run it from the root of a jbkit checkout; it reads ``src/jbkit`` there
and writes only under ``.perfbench_out/``.  The seeded inputs are
generated first.  Then, until ``--seconds`` are used up, the job list
runs again and again, each pass in a fresh Python process from a single
client in a closed loop.  Every job's output is checked after the
passes, untimed.

With ``--trace 0`` the metrics are the end-to-end ones: ``setup_s`` (a
fresh interpreter importing jbkit, median of samples taken between the
passes), ``wall_s`` (the job list, median over passes) and
``peak_rss_mb`` (the pass process, median over passes).  With
``--trace 1`` passes alternate between
untraced and traced, and the metrics are the per-layer ones listed in
``tracer.METRICS``, with the tracing overhead.  Every metric is printed
by name with its unit; the last line of stdout is the JSON result, and
the full record (jobs, seed, sizes, per-pass times) is written next to
the inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import tracer

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".perfbench_out"
SETUP_SAMPLES = 2  # per pass, and as many before the first
WORKER_TIMEOUT_S = 150
END_TO_END = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB"}
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import jbkit.cli; print(time.perf_counter() - t)"
)


def _env(root):
    env = dict(os.environ)
    env.pop("JBKIT_MAX_DEGREE", None)
    env["PYTHONPATH"] = os.path.join(root, "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def import_times(root, env, n):
    """Seconds for n fresh interpreters to import jbkit."""
    samples = []
    for _ in range(n):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE],
            cwd=root, env=env, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(proc.stdout))
    return samples


def run_pass(root, env, work, n, traced):
    """One pass in a fresh process; None when the process failed."""
    result = os.path.join(work, "pass-%02d.json" % n)
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), os.path.join(work, "jobs.json"), result]
    if traced:
        cmd += ["--trace", os.path.join(work, "spans-%02d.json" % n)]
    try:
        proc = subprocess.run(
            cmd, cwd=root, env=env, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired:
        return None, "pass %d timed out after %d s" % (n, WORKER_TIMEOUT_S)
    if proc.returncode != 0:
        return None, "pass %d exited %d: %s" % (n, proc.returncode, proc.stderr.strip()[-500:])
    with open(result) as fh:
        rec = json.load(fh)
    rec["traced"] = traced
    return rec, None


def run_passes(root, env, work, seconds, trace):
    """Closed loop of passes until the time budget would be overrun.

    Import samples for setup_s are taken between the passes, so that
    they meet the host in as many states as the passes do.
    """
    import_times(root, env, 1)  # may compile bytecode
    setup = import_times(root, env, SETUP_SAMPLES)
    kinds = (False, True) if trace else (False,)
    passes, errors, durations = [], [], []
    start = time.perf_counter()
    while True:
        n = len(passes) + len(errors)
        t = time.perf_counter()
        rec, err = run_pass(root, env, work, n, kinds[n % len(kinds)])
        setup += import_times(root, env, SETUP_SAMPLES)
        durations.append(time.perf_counter() - t)
        if rec is None:
            errors.append(err)
        else:
            passes.append(rec)
        if n + 1 >= len(kinds) and time.perf_counter() - start + max(durations) > seconds:
            return setup, passes, errors


def check_passes(jobs, passes):
    """Check every job result; later passes must repeat the first output."""
    import checks

    by_id = {job["id"]: job for job in jobs}
    verdicts, failures = {}, []
    for p, rec in enumerate(passes):
        for res in rec["jobs"]:
            key = res["id"]
            if key not in verdicts:
                verdicts[key] = (res["stdout"], res["rc"], checks.check(by_id[key], res))
            first_out, first_rc, problem = verdicts[key]
            if (res["stdout"], res["rc"]) != (first_out, first_rc):
                problem = "output differs from the first pass"
            if problem:
                failures.append({"pass": p, "job": key, "problem": problem})
    return failures


def _median(values):
    return statistics.median(values) if values else 0.0


def command_times(passes):
    """Per command, the median over passes of its jobs' summed seconds."""
    sums = []
    for rec in passes:
        pass_sums = {}
        for res in rec["jobs"]:
            pass_sums[res["cmd"]] = pass_sums.get(res["cmd"], 0.0) + res["seconds"]
        sums.append(pass_sums)
    return {cmd: _median([s[cmd] for s in sums]) for cmd in sums[0]} if sums else {}


def list_time(passes):
    """Median over passes of the job list's seconds."""
    return _median([sum(res["seconds"] for res in rec["jobs"]) for rec in passes])


def layer_metrics(untraced, traced, problems):
    """Per-layer metrics from the traced passes; counts must repeat exactly."""
    summaries = [rec["trace"] for rec in traced]
    cmd = command_times(untraced)
    out = {}
    for name, (unit, _) in tracer.METRICS.items():
        if name in tracer.COMMANDS:
            value = cmd.get(tracer.COMMANDS[name], 0.0)
        elif name in tracer.SHARES:
            parts = tracer.SHARES[name][0]
            value = _median([sum(s.get(p, 0) for p in parts) / s["wall_s"] for s in summaries])
        elif name == "trace.wall_s":
            value = list_time(traced)
        elif name == "trace.overhead_s":
            value = list_time(traced) - list_time(untraced)
        elif unit in ("s", "ratio"):
            value = _median([s.get(name, 0.0) for s in summaries])
        else:
            seen = {s.get(name, 0) for s in summaries}
            if len(seen) > 1:
                problems.append("count %s differs between traced passes: %s" % (name, sorted(seen)))
            value = summaries[0].get(name, 0) if summaries else 0
        out[name] = (value, unit)
    return out


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "jbkit", "__init__.py")):
        print("perfbench: no jbkit source at %s/src/jbkit; run from a checkout root" % root,
              file=sys.stderr)
        return 2
    # The whole run, one process at a time, on the last CPU: the first
    # takes most of the interrupts and the rest of the machine's work.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    sys.path.insert(0, os.path.join(root, "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print("perfbench: unknown workload %r (have: %s)"
              % (args.workload, ", ".join(workloads.WORKLOADS)), file=sys.stderr)
        return 2

    rel = os.path.join(OUT_DIR, "%s-%d" % (args.workload, args.seed))
    work = os.path.join(root, rel)
    shutil.rmtree(work, ignore_errors=True)
    jobs = workloads.generate(args.workload, args.seed, work, rel)

    setup, passes, errors = run_passes(root, _env(root), work, args.seconds, args.trace)
    untraced = [rec for rec in passes if not rec["traced"]]
    traced = [rec for rec in passes if rec["traced"]]
    failures = check_passes(jobs, passes)
    by_id = {job["id"]: job for job in jobs}
    problems = list(errors)
    attempted = len(jobs) * (len(passes) + len(errors))
    failed = len(failures) + len(jobs) * len(errors)

    if args.trace:
        metrics = layer_metrics(untraced, traced, problems)
        if not traced or not untraced:
            problems.append("a traced run needs a traced and an untraced pass")
        for rec in traced:
            for entry in rec["shapes"]:
                if entry["shapes"] != by_id[entry["job"]]["size"].get("shapes"):
                    problems.append("matrix shapes of %s differ from the unscaled datum"
                                    % entry["job"])
    else:
        metrics = {
            "setup_s": (_median(setup), "s"),
            "wall_s": (list_time(untraced), "s"),
            "peak_rss_mb": (_median([rec["peak_rss_mb"] for rec in untraced]), "MB"),
        }

    sizes = {"jobs": len(jobs), "job_sizes": {job["id"]: job["size"] for job in jobs}}
    if traced:
        sizes["counts"] = {k: metrics[k][0] for k in tracer.SIZES}
        sizes["shapes"] = traced[0]["shapes"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": sys.version.split()[0],
        "jobs": [{k: job[k] for k in ("id", "cmd", "argv")} for job in jobs],
        "setup_samples_s": setup,
        "passes": [
            {
                "traced": rec["traced"],
                "peak_rss_mb": rec["peak_rss_mb"],
                "job_s": {res["id"]: res["seconds"] for res in rec["jobs"]},
            }
            for rec in passes
        ],
        "command_s": command_times(untraced),
        "failures": failures,
        "problems": problems,
        "fail_rate": failed / attempted,
        "sizes": sizes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record_path = os.path.join(work, "record-trace%d.json" % args.trace)
    with open(record_path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)

    for f in failures[:20]:
        print("FAIL pass %(pass)d %(job)s: %(problem)s" % f)
    for msg in problems:
        print("PROBLEM %s" % msg)
    print("%s seed %d: %d passes (%d traced), %d/%d job runs failed"
          % (args.workload, args.seed, len(passes), len(traced), failed, attempted))
    for name, (value, unit) in metrics.items():
        print("  %-40s %14.6g %s" % (name, value, unit))
    print("record: %s" % os.path.join(rel, os.path.basename(record_path)))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
