"""Interleaved A/B passes of one benchmark corpus over two checkouts, in one
process.

    python3 tools/ab_pass.py PARENT CHANGE --workload certify-Q [--seed 0] [--rounds 6]

Copies the `ratprime` package of each checkout (CHECKOUT/src/ratprime) into
a temporary directory under its own name, `ab_parent` and `ab_change`, and
imports both.  It builds the seed's corpus with this repository's
perfbench/corpus.py and runs it through each side's `cli.main`, job by job,
in whole passes: one untimed pass per side first, whose reports (without
`timing_ms`) are compared, then ROUNDS timed rounds of one pass per side,
alternating which side runs first.  It prints jobs/s per round for each
side, the medians, the median of the per-round change/parent ratios with
a distribution-free 95 % interval for it (from 6 rounds on), how many
rounds the change won, and whether every report is identical.  It also
prints, for each side, job_ms_p50 and job_ms_p90 as perfbench/run.py defines
them (across inputs, of each input's mean ms over the timed rounds), and the
change/parent ratio of each.  Nothing is written under perfbench/ or the
checkouts.

Both sides share one interpreter and the host's drift between them, so the
ratio is steadier than that of two benchmark processes run one after the
other.  The two sides of one round run back to back and share most of that
drift, so the median paired ratio is steadier still than the ratio of the
medians when the host's speed swings across rounds.  It is a pre-check
only: a claimed gain rests on perfbench/run.py pairs.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import importlib
import io
import json
import math
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")


def load(checkout: str, name: str, into: Path):
    """The cli module of CHECKOUT's ratprime package, imported as `name`."""
    src = Path(checkout).resolve() / "src" / "ratprime"
    if not (src / "cli.py").is_file():
        raise SystemExit(f"error: no ratprime sources at {src}")
    shutil.copytree(src, into / name, ignore=shutil.ignore_patterns("__pycache__"))
    return importlib.import_module(f"{name}.cli")


def run_pass(cli, argvs) -> tuple[float, list, list]:
    """(wall seconds, [(exit code, report without timing_ms)], [ms per job])
    of one pass."""
    reports, job_ms = [], []
    gc.collect()
    start = time.perf_counter()
    for argv in argvs:
        out = io.StringIO()
        begin = time.perf_counter()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        job_ms.append((time.perf_counter() - begin) * 1000)
        reports.append((code, out.getvalue()))
    seconds = time.perf_counter() - start
    normalised = []
    for code, text in reports:
        report = json.loads(text)
        del report["timing_ms"]
        normalised.append((code, report))
    return seconds, normalised, job_ms


def job_quantiles(rounds: list) -> tuple[float, float]:
    """(p50, p90) across inputs of each input's mean ms over the rounds, as
    perfbench/run.py computes job_ms_p50 and job_ms_p90."""
    per_input = [statistics.fmean(ms) for ms in zip(*rounds)]
    return statistics.median(per_input), statistics.quantiles(per_input, n=10)[-1]


def median_interval(values: list) -> tuple | None:
    """Distribution-free 95 % interval for the median of `values`: the order
    statistics at ranks j and n - j + 1, with j the largest rank such that
    P(Binomial(n, 1/2) <= j - 1) <= 0.025.  None when n < 6, where no rank
    qualifies."""
    n = len(values)
    j, below = 0, 1  # below = 2^n * P(Binomial(n, 1/2) <= j)
    while below * 40 <= 2 ** n:
        j += 1
        below += math.comb(n, j)
    if j == 0:
        return None
    ranked = sorted(values)
    return ranked[j - 1], ranked[n - j]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--rounds", type=int, default=6)
    args = parser.parse_args(argv)
    if args.rounds < 1:
        raise SystemExit("error: --rounds must be at least 1")

    sys.dont_write_bytecode = True  # no __pycache__ under perfbench/
    sys.path.insert(0, str(ROOT / "perfbench"))
    import corpus
    if args.workload not in corpus.WORKLOADS:
        raise SystemExit(f"error: workload must be one of {', '.join(corpus.WORKLOADS)}")
    argvs = [job.argv for job in corpus.build(args.workload, args.seed)]

    with tempfile.TemporaryDirectory() as tmp:
        sys.path.insert(0, tmp)
        clis = {side: load(path, f"ab_{side}", Path(tmp))
                for side, path in zip(SIDES, (args.parent, args.change))}
        first = {side: run_pass(clis[side], argvs)[1] for side in SIDES}
        rates = {side: [] for side in SIDES}
        job_ms = {side: [] for side in SIDES}  # one list of per-job ms per round
        for r in range(args.rounds):
            order = SIDES if r % 2 == 0 else SIDES[::-1]
            for side in order:
                seconds, _, ms = run_pass(clis[side], argvs)
                rates[side].append(len(argvs) / seconds)
                job_ms[side].append(ms)
            print(f"round {r + 1} ({order[0]} first): "
                  + "  ".join(f"{side} {rates[side][-1]:.1f}" for side in SIDES)
                  + " jobs/s")

    medians = {side: statistics.median(rates[side]) for side in SIDES}
    ratios = [c / p for p, c in zip(rates["parent"], rates["change"])]
    paired = statistics.median(ratios)
    interval = median_interval(ratios)
    wins = sum(r > 1 for r in ratios)
    same = [i for i, (a, b) in enumerate(zip(first["parent"], first["change"])) if a != b]
    print(f"{args.workload} seed {args.seed}, {len(argvs)} jobs a pass")
    print(f"median jobs/s: parent {medians['parent']:.1f}  change {medians['change']:.1f}"
          f"  ({medians['change'] / medians['parent'] - 1:+.1%})")
    print(f"median per-round change/parent: {paired:.3f} ({paired - 1:+.1%})")
    print("95 % interval of that median: too few rounds (needs 6)" if interval is None else
          f"95 % interval of that median: {interval[0]:.3f} to {interval[1]:.3f}")
    print(f"change wins {wins} of {args.rounds} rounds")
    quantiles = {side: job_quantiles(job_ms[side]) for side in SIDES}
    for k, name in enumerate(("job_ms_p50", "job_ms_p90")):
        parent, change = quantiles["parent"][k], quantiles["change"][k]
        print(f"{name}: parent {parent:.3f}  change {change:.3f}"
              f"  change/parent {change / parent:.3f} ({change / parent - 1:+.1%})")
    print("reports identical: yes" if not same else
          f"reports identical: no, jobs {same[:20]}{' ...' if len(same) > 20 else ''}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
