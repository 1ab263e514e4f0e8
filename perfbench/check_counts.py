#!/usr/bin/env python3
"""Checks of the traced run's work counters.

    python3 perfbench/check_counts.py [--seed 1] [--seconds 1]

1. Repeatability: runs ``run.py --trace 1`` twice per workload with the same
   seed and compares every per-layer metric that is not a time.  Counts are
   the deterministic part of the trace, so they must agree exactly.
2. Baseline: traces ``metrize`` on Example 1 (15x15 grid, 50 samples, seed
   20240601) and splits the ``curvature_profile`` calls by the command stage
   that caused them, for comparison with the measured baseline of 868 / 1865 /
   4996 calls in the build / checks / grid-table stages.

Exits 1 when a count differs between the two traced runs.
"""

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys

import run  # first: pins BLAS / OpenMP threads before numpy is imported

BASELINE = {"build": 868, "checks": 1865, "grid table": 4996}
STAGES = {"classifier.classify": "classify", "cli._build_forms": "build",
          "cli._verify_forms": "checks", "cli._grid_table": "grid table"}


def traced_counts(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(run.HERE, "run.py"),
                           "--workload", workload, "--seed", str(seed),
                           "--seconds", str(seconds), "--trace", "1"],
                          cwd=run.ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError("traced run failed: %s" % proc.stderr.strip())
    metrics = json.loads(proc.stdout.strip().splitlines()[-1])["metrics"]
    return {k: v["value"] for k, v in metrics.items() if v["unit"] != "s"}


def stage_counts(cli) -> dict:
    import jobs
    import tracing

    extra = [("cli._build_forms", "cli", "_build_forms"),
             ("cli._verify_forms", "cli", "_verify_forms"),
             ("cli._grid_table", "cli", "_grid_table")]
    workdir = os.path.join(run.WORK, "check_counts")
    os.makedirs(workdir, exist_ok=True)
    job = jobs.Job("ex1_metrize", jobs.config_text(jobs.EX1, jobs.EX1_PARAMS,
                                                   require=jobs.EX1_REQUIRE),
                   [], "metrize")
    files = run.JobFiles(workdir, job)
    tracer = tracing.Tracer(extra)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(files.argv(job))
    finally:
        tracer.uninstall()
    if rc != 0:
        raise RuntimeError("Example 1 metrize exited %r" % rc)
    out = {stage: 0 for stage in STAGES.values()}
    spans = tracer.spans
    for name, _t0, _t1, parent, _job in spans:
        if name != "geometry_core.curvature_profile":
            continue
        while parent >= 0 and spans[parent][0] not in STAGES:
            parent = spans[parent][3]
        if parent >= 0:
            out[STAGES[spans[parent][0]]] += 1
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=1.0)
    args = ap.parse_args(argv)
    cli = run.import_program()
    import jobs

    ok = True
    for workload in jobs.WORKLOADS:
        first = traced_counts(workload, args.seed, args.seconds)
        second = traced_counts(workload, args.seed, args.seconds)
        diff = sorted(k for k in first if first[k] != second.get(k))
        ok = ok and not diff
        print("%-15s %d counts, %s" % (workload, len(first),
                                        "identical in two traced runs" if not diff
                                        else "DIFFER: " + ", ".join(diff)))

    counts = stage_counts(cli)
    print("Example 1 metrize, curvature_profile calls per stage (baseline in brackets):")
    for stage, n in counts.items():
        base = BASELINE.get(stage)
        note = "" if base is None else " [%d]%s" % (base, "" if n == base else " DIFFERS")
        print("  %-10s %6d%s" % (stage, n, note))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
