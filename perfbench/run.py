"""ratprime benchmark: one closed-loop client over a seeded corpus.

    python3 perfbench/run.py --workload certify-Q --seed 0 --seconds 24 --trace 0

Run from anywhere inside a source checkout; the program is imported from the
checkout's src/ directory and nowhere else.  One client (this process, one
thread) calls `ratprime.cli.main(argv)` in process with `--json`, capturing
stdout, and sends the next job only when the previous one has returned.  The
program receives only the generated expression strings (corpus.py).

Workloads (see BENCHMARK.json for why each exists): certify-Q, certify-Fp,
oracle-ring.

--trace 0 cycles through the corpus until --seconds have passed (at least
one whole pass) and prints the end-to-end metrics:
  jobs_per_s    completed jobs per wall second: corpus size over the time
                of one pass, with each input's time its mean over the whole
                run (the host's speed drifts by tens of percent over seconds,
                and a mean over the whole run is the steadiest figure; a pass
                cut short by the deadline keeps the corpus's mix of jobs)
  job_ms_p50/90 across inputs, of each input's mean over the run
  setup_s       median over several fresh interpreters of importing
                ratprime.cli and finishing one trivial job, half of them
                started before the timed loop and half after it
  peak_rss_mb   peak resident set of the client process after the loop
  ok_frac       share of attempted jobs that exited 0 with correct output

--trace 1 alternates traced and untraced whole passes until --seconds have
passed (at least two traced and one untraced), and prints per-layer metrics per pass
(tracing.py), the exact-count comparison between traced passes, and the
tracing overhead.  Spans are written to perfbench/out/.

Outputs are checked after the timed loop (check.py); failures go to stderr
and into the result file perfbench/out/BENCH_<workload>_seed<n>_trace<k>.json
together with machine metadata.  The last stdout line is the result JSON.
--smoke swaps in a tiny corpus for the benchmark's own tests.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

DEFAULT_SEED = 0
SETUP_REPEATS = 11
CALIBRATION_LOOPS = 3_000_000
TIMING_FIELD = re.compile(r'"timing_ms": [^,\n]*')
SETUP_SCRIPT = """
import io, sys
sys.path.insert(0, sys.argv[1])
import ratprime.cli
sys.stdout = io.StringIO()
sys.exit(ratprime.cli.main(["analyze", "--json", "x^3+x"]))
"""


def load_program():
    """Import ratprime from this checkout's src/, refusing any other copy."""
    if not (SRC / "ratprime" / "cli.py").is_file():
        raise SystemExit(f"error: no ratprime sources at {SRC}; run inside a checkout")
    sys.path.insert(0, str(SRC))
    import ratprime
    import ratprime.cli
    if Path(ratprime.__file__).resolve().parent != SRC / "ratprime":
        raise SystemExit(f"error: imported ratprime from {ratprime.__file__}, not {SRC}")
    return ratprime


def measure_setup(repeats: int) -> list[float]:
    samples = []
    for _ in range(repeats):
        start = time.perf_counter()
        done = subprocess.run([sys.executable, "-c", SETUP_SCRIPT, str(SRC)],
                              cwd=ROOT, capture_output=True, timeout=60)
        samples.append(time.perf_counter() - start)
        if done.returncode != 0:
            raise SystemExit(f"error: set-up job failed: {done.stderr.decode()[-500:]}")
    return samples


def git_sha():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine_metadata() -> dict:
    start = time.perf_counter()
    acc = 0
    for i in range(CALIBRATION_LOOPS):
        acc += i
    calibration_ms = (time.perf_counter() - start) * 1000
    return {
        "platform": platform.platform(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "git_sha": git_sha(),
        "calibration_ms": round(calibration_ms, 1),
        "calibration_note": f"{CALIBRATION_LOOPS} additions; information only",
    }


class Pass:
    """Jobs run by one closed loop: per-input timings and first reports."""

    def __init__(self, n):
        self.times = [[] for _ in range(n)]
        self.reports = [None] * n     # (exit code, report text) of the first run
        self.normalised = [None] * n  # the same with the timing field removed
        self.changed = set()          # inputs whose report differed between runs
        self.jobs = 0
        self.seconds = 0.0
        self.pass_seconds = []        # wall time of each complete pass


def closed_loop(cli, jobs, argvs, seconds, tracer=None, reference=None) -> Pass:
    """Run jobs in order, cyclically, until `seconds` have passed and every
    job has run once.  Each report must equal, timing aside, the first report
    of the same input in `reference` (an earlier loop) or else in this loop."""
    n = len(jobs)
    run = Pass(n)
    gc.collect()
    start = end = pass_start = time.perf_counter()
    deadline = start + seconds
    while run.jobs < n or end < deadline:
        i = run.jobs % n
        if tracer is not None:
            tracer.job, tracer.command = i, jobs[i].command
        buffer = io.StringIO()
        begin = time.perf_counter()
        try:
            with contextlib.redirect_stdout(buffer):
                code = cli.main(argvs[i])
        except Exception:  # a crash is a failed job, not a failed benchmark
            code, buffer = -1, io.StringIO(json.dumps({"error": traceback.format_exc()}))
        end = time.perf_counter()
        run.times[i].append(end - begin)
        run.jobs += 1
        if run.jobs % n == 0:
            run.pass_seconds.append(end - pass_start)
            pass_start = end
        text = buffer.getvalue()
        normalised = (code, TIMING_FIELD.sub("", text))
        if run.reports[i] is None:
            run.reports[i], run.normalised[i] = (code, text), normalised
        if normalised != (reference or run.normalised)[i]:
            run.changed.add(i)
    run.seconds = end - start
    return run


def checked(jobs, runs, seed, key):
    """Check the first loop's reports and every loop's consistency with
    them; returns (failed attempts, problem list)."""
    failures, signatures = check.check_all(jobs, runs[0].reports, seed)
    for run in runs:
        for i in run.changed:
            failures.setdefault(i, []).append("report changed between runs")
    if seed == DEFAULT_SEED:
        for i, problem in check.golden_problems(key, signatures).items():
            failures.setdefault(i, []).append(problem)
    failed = sum(len(run.times[i]) for run in runs for i in failures)
    problems = [f"job {i} ({jobs[i].command} {jobs[i].stratum} p={jobs[i].p}): {msg}"
                for i, msgs in sorted(failures.items()) for msg in msgs]
    return failed, problems


def end_to_end(cli, jobs, argvs, seconds, seed, key):
    setup = measure_setup(SETUP_REPEATS // 2)
    run = closed_loop(cli, jobs, argvs, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += measure_setup(SETUP_REPEATS - len(setup))
    setup_s = statistics.median(setup)
    failed, problems = checked(jobs, [run], seed, key)
    per_input_ms = [statistics.fmean(t) * 1000 for t in run.times]
    metrics = {
        "jobs_per_s": (len(jobs) / sum(per_input_ms) * 1000, "1/s"),
        "job_ms_p50": (statistics.median(per_input_ms), "ms"),
        "job_ms_p90": (statistics.quantiles(per_input_ms, n=10)[-1], "ms"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "ok_frac": (1 - failed / run.jobs, "fraction"),
    }
    details = {"passes": run.jobs / len(jobs), "seconds": run.seconds,
               "pass_seconds": run.pass_seconds, "setup_s": setup,
               "input_ms": per_input_ms}
    return run.jobs, failed, problems, metrics, details


def per_layer(package, cli, jobs, argvs, seconds, seed, key, spans_stem):
    traced, untraced, tracers = [], [], []
    start = time.perf_counter()
    reference = None
    while len(traced) < 2 or not untraced or time.perf_counter() - start < seconds:
        if len(traced) > len(untraced):
            untraced.append(closed_loop(cli, jobs, argvs, 0, None, reference))
            continue
        tracer = tracing.Tracer()
        tracer.install(package)
        try:
            traced.append(closed_loop(cli, jobs, argvs, 0, tracer, reference))
        finally:
            tracer.uninstall()
        tracers.append(tracer)
        reference = reference or traced[0].normalised
    failed, problems = checked(jobs, traced + untraced, seed, key)
    counts = [t.snapshot() for t in tracers]
    for k, other in enumerate(counts[1:], start=2):
        if other != counts[0]:
            differing = sorted(name for name in set(other) | set(counts[0])
                               if other.get(name) != counts[0].get(name))
            problems.append(f"exact counts of traced pass {k} differ from pass 1: {differing}")
    analyze_jobs = sum(job.command == "analyze" for job in jobs)
    values = tracing.layer_metrics(tracers, analyze_jobs)
    traced_rate = sum(r.jobs for r in traced) / sum(r.seconds for r in traced)
    untraced_rate = sum(r.jobs for r in untraced) / sum(r.seconds for r in untraced)
    values.update({"trace.jobs_per_s": traced_rate,
                   "trace.untraced_jobs_per_s": untraced_rate,
                   "trace.slowdown": untraced_rate / traced_rate})
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"{spans_stem}.jsonl", "w") as out:
        for k, t in enumerate(tracers, start=1):
            t.write_spans(out, k)
    metrics = {name: (value, _unit(name)) for name, value in values.items()}
    attempted = sum(r.jobs for r in traced + untraced)
    details = {"traced_passes": len(traced), "untraced_passes": len(untraced),
               "counts": counts[0]}
    return attempted, failed, problems, metrics, details


def _unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_rate", "slowdown", "per_job")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=corpus.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpus, for the benchmark's own tests")
    args = parser.parse_args(argv)

    package = load_program()
    cli = sys.modules[f"{package.__name__}.cli"]
    meta = machine_metadata()
    jobs = corpus.build(args.workload, args.seed, args.smoke)
    argvs = [job.argv for job in jobs]
    key = check.golden_key(args.workload, args.smoke)
    stem = f"BENCH_{args.workload}_seed{args.seed}_trace{args.trace}"
    if args.trace:
        attempted, failed, problems, metrics, details = per_layer(
            package, cli, jobs, argvs, args.seconds, args.seed, key, stem + "_spans")
    else:
        attempted, failed, problems, metrics, details = end_to_end(
            cli, jobs, argvs, args.seconds, args.seed, key)
    correct = not problems
    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    OUT.mkdir(exist_ok=True)
    (OUT / f"{stem}.json").write_text(json.dumps(
        {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
         "smoke": args.smoke, "corpus_jobs": len(jobs), "machine": meta,
         "details": details, "problems": problems, **result}, indent=2))
    print("machine: " + json.dumps(meta))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
