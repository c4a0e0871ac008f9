"""Rewrite golden.json from the current program, for the default seed.

    python3 perfbench/make_golden.py

Only for a change that is meant to alter verdicts, digests or ring classes:
the golden record is what lets the benchmark notice when one changes
unintentionally.  Refuses to write while any other check fails.
"""

from __future__ import annotations

import json
import sys

import check
import corpus
import run


def main() -> int:
    package = run.load_program()
    cli = sys.modules[f"{package.__name__}.cli"]
    record = {}
    for workload in corpus.WORKLOADS:
        for smoke in (False, True):
            jobs = corpus.build(workload, run.DEFAULT_SEED, smoke)
            loop = run.closed_loop(cli, jobs, [job.argv for job in jobs], 0)
            failures, signatures = check.check_all(jobs, loop.reports, run.DEFAULT_SEED)
            if failures:
                print(json.dumps(failures, indent=2), file=sys.stderr)
                return 1
            record[check.golden_key(workload, smoke)] = signatures
    check.GOLDEN.write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
