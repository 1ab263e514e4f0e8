#!/usr/bin/env python3
"""Closed-loop benchmark of berwald's classify, verify and geodesic jobs.

    python3 perfbench/run.py --workload certify --seed 7 --seconds 25 --trace 0

One caller, one thread: each job runs to completion, in-process through
``berwald.cli.main``, before the next starts.  A pass runs the workload's
whole job set; passes repeat until ``--seconds`` have gone by (at least two,
so every job runs twice and its JSON bytes can be compared).  Each job's
outcome is checked against the table in ``jobs.py``.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` wraps the layers
(``tracing.py``) and prints the per-layer metrics instead.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics.  The program is imported from ``src/`` next to this directory;
without it the benchmark exits with status 1 before running anything.
"""

import os

# One BLAS / OpenMP thread: the benchmark measures the program, not the
# scheduler.  Set before numpy is first imported; inherited by the set-up
# subprocesses.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")

SETUP_REPEATS = 5
SETUP_CODE = """import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import berwald.cli
for path in sys.argv[2:]:
    berwald.cli.load_config(path)
print(repr(time.perf_counter() - t0))
"""

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("success_rate", "ratio")]


def import_program():
    sys.path.insert(0, SRC)
    try:
        import berwald.cli as cli
    except ImportError as exc:
        sys.exit("perfbench: cannot import berwald from %s: %s" % (SRC, exc))
    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        sys.exit("perfbench: berwald imported from %s, not from %s" % (cli.__file__, SRC))
    return cli


def git_sha() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if ref.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", ref[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def environment(seed: int) -> dict:
    import numpy
    import scipy
    return {"seed": seed, "git_sha": git_sha(), "nproc": os.cpu_count(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__}


# -- jobs ----------------------------------------------------------------------

class JobFiles:
    def __init__(self, workdir: str, job):
        self.config = os.path.join(workdir, job.name + ".cfg")
        self.json = os.path.join(workdir, job.name + ".json")
        self.traj = os.path.join(workdir, job.name + ".traj")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(job.config)

    def argv(self, job) -> list:
        argv = [job.command, self.config, "--json", self.json, "--quiet"] + job.args
        if job.command == "geodesic":
            argv += ["--out", self.traj]
        return argv

    def clear(self):
        for path in (self.json, self.traj, self.traj + ".finsler"):
            if os.path.exists(path):
                os.remove(path)

    def outputs(self) -> tuple:
        out = []
        for path in (self.json, self.traj, self.traj + ".finsler"):
            if os.path.exists(path):
                with open(path, "rb") as fh:
                    out.append(fh.read())
            else:
                out.append(None)
        return tuple(out)


def run_job(cli, job, files) -> dict:
    files.clear()
    err = io.StringIO()
    exc = None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
            rc = cli.main(files.argv(job))
    except SystemExit as stop:
        rc = stop.code
    except Exception as error:  # an escaped exception is a failed job, not a crash
        rc, exc = None, "%s: %s" % (type(error).__name__, error)
    seconds = time.perf_counter() - t0
    return {"rc": rc, "seconds": seconds, "stderr": err.getvalue(), "exception": exc,
            "outputs": files.outputs()}


def check_outcome(job, res) -> tuple:
    """(failed, wrong, reason).  A job fails when its outcome differs from the
    expected one; it is ``wrong`` unless the program only declined to answer:
    it refused to certify a construction, or left a verdict undetermined."""
    if res["exception"]:
        return True, True, "exception escaped: " + res["exception"]
    exp = job.expect
    doc = json.loads(res["outputs"][0]) if res["outputs"][0] else None
    if "forms" in exp and exp["forms"] and res["rc"] == 1 and doc and doc.get("refused"):
        return True, False, "refused: " + doc["refused"]
    verdict = (doc or {}).get("classification")
    for key in ("class", "finsler_metrizable", "riemann_metrizable", "holonomy_rank"):
        if key not in exp or (verdict is None and exp.get("exit_status") == 1):
            continue
        got = None if verdict is None else verdict.get(key)
        if got == "undetermined":
            return True, False, "%s undetermined, expected %r" % (key, exp[key])
        if got != exp[key]:
            return True, True, "%s = %r, expected %r" % (key, got, exp[key])
    if "exit_status" in exp and res["rc"] != exp["exit_status"]:
        return True, True, "exit %r, expected %r (%s)" % (
            res["rc"], exp["exit_status"], res["stderr"].strip()[:200])
    if "forms" in exp:
        got = sorted((doc or {}).get("forms", {}))
        if got != sorted(exp["forms"]):
            return True, True, "forms %s, expected %s" % (got, sorted(exp["forms"]))
    if "discrepancy_max" in exp:
        disc = (doc or {}).get("discrepancy")
        if disc is None or not disc <= exp["discrepancy_max"]:
            return True, True, "geodesic discrepancy %r > %g" % (disc, exp["discrepancy_max"])
    return False, False, ""


class Ledger:
    """Job outcomes across passes, plus the byte-for-byte repeat check."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = False
        self.reasons = {}
        self.first_outputs = {}
        self.times = {}

    def record(self, job, res):
        self.attempted += 1
        self.times.setdefault(job.name, []).append(res["seconds"])
        failed, wrong, reason = check_outcome(job, res)
        first = self.first_outputs.setdefault(job.name, res["outputs"])
        if first != res["outputs"]:
            failed, wrong, reason = True, True, "output bytes differ between runs"
        if failed:
            self.failed += 1
            self.wrong = self.wrong or wrong
            self.reasons[job.name] = reason


def run_pass(cli, job_list, files, ledger, tracer=None) -> float:
    total = 0.0
    for job in job_list:
        if tracer is not None:
            tracer.job = job.name
        res = run_job(cli, job, files[job.name])
        ledger.record(job, res)
        total += res["seconds"]
    return total


def measure_setup(files: dict) -> list:
    """Fresh-process import of berwald plus load_config of every job."""
    cmd = [sys.executable, "-I", "-c", SETUP_CODE, SRC] + [f.config for f in files.values()]
    out = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError("set-up process failed: %s" % proc.stderr.strip())
        out.append(float(proc.stdout.strip().splitlines()[-1]))
    return out


# -- main ------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    cli = import_program()
    import jobs
    import tracing

    if args.workload not in jobs.WORKLOADS:
        sys.exit("perfbench: unknown workload %r (known: %s)"
                 % (args.workload, ", ".join(sorted(jobs.WORKLOADS))))
    job_list = jobs.WORKLOADS[args.workload](args.seed)
    workdir = os.path.join(WORK, "%s-%d" % (args.workload, args.seed))
    os.makedirs(workdir, exist_ok=True)
    files = {job.name: JobFiles(workdir, job) for job in job_list}
    env = environment(args.seed)
    print("perfbench %s: %s" % (args.workload, json.dumps(env, sort_keys=True)))

    ledger = Ledger()
    walls = []
    start = time.perf_counter()
    if args.trace:
        # Traced and untraced passes alternate, so the overhead compares
        # passes run under the same host conditions.
        tracer = tracing.Tracer()
        per_pass, untraced = [], []
        while len(walls) < 2 or time.perf_counter() - start < args.seconds:
            tracer.start_pass()
            tracer.install()
            try:
                walls.append(run_pass(cli, job_list, files, ledger, tracer))
            finally:
                tracer.uninstall()
            per_pass.append(tracer.pass_metrics())
            untraced.append(run_pass(cli, job_list, files, ledger))
        tracer.write_spans(os.path.join(workdir, "spans.jsonl.gz"))
        values = tracing.summarize(per_pass, statistics.median(untraced), walls)
        units = {name: unit for name, unit, _ in tracing.PER_LAYER}
        repeat = all(tracing.counts_of(p) == tracing.counts_of(per_pass[0]) for p in per_pass)
        print("traced passes: %d; counts repeat across passes: %s; tracing overhead "
              "%.3f s per pass" % (len(per_pass), "yes" if repeat else "NO",
                                   values["trace.overhead_s"]))
    else:
        while len(walls) < 2 or time.perf_counter() - start < args.seconds:
            walls.append(run_pass(cli, job_list, files, ledger))
        setup = measure_setup(files)
        values = {"wall_s": statistics.median(walls),
                  "setup_s": statistics.median(setup),
                  "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  "success_rate": 1.0 - ledger.failed / ledger.attempted}
        units = dict(END_TO_END)
        print("passes: %d (wall_s is their median): %s s; set-up samples: %d"
              % (len(walls), " ".join("%.3f" % w for w in walls), len(setup)))
        for job in job_list:
            print("  %-16s median %.3f s over %d runs"
                  % (job.name, statistics.median(ledger.times[job.name]),
                     len(ledger.times[job.name])))
        print("error_rate %.4f (%d failed of %d job runs)"
              % (ledger.failed / ledger.attempted, ledger.failed, ledger.attempted))
    for name, reason in sorted(ledger.reasons.items()):
        print("  FAILED %s: %s" % (name, reason))
    for name in units:
        print("%-52s %.6g %s" % (name, values[name], units[name]))

    print(json.dumps({"correct": not ledger.wrong, "attempted": ledger.attempted,
                      "failed": ledger.failed,
                      "metrics": {name: {"value": values[name], "unit": units[name]}
                                  for name in units}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
