"""Digest every seed-0 benchmark report of a checkout, one line per job.

    python3 tools/report_digest.py CHECKOUT

Builds every seed-0 full and smoke corpus with this repository's
perfbench/corpus.py, runs each job's argv in process through the
`ratprime.cli.main` under CHECKOUT/src, and prints one line per job:

    <workload> <smoke: 0 or 1> <index> <exit code> <sha256 of the report without timing_ms>

The last line is `total <jobs> <sha256 of the lines above>`.  Both checkouts
get the same inputs, so `diff <(python3 tools/report_digest.py A)
<(python3 tools/report_digest.py B)` lists exactly the jobs whose reports
differ.  Nothing under perfbench/ is written.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SEED = 0


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit("usage: python3 tools/report_digest.py CHECKOUT")
    src = Path(argv[0]).resolve() / "src"
    if not (src / "ratprime" / "cli.py").is_file():
        raise SystemExit(f"error: no ratprime sources at {src}")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import corpus
    import ratprime.cli
    if Path(ratprime.cli.__file__).resolve().parent != src / "ratprime":
        raise SystemExit(f"error: imported ratprime from {ratprime.cli.__file__}, not {src}")
    total = hashlib.sha256()
    jobs = 0
    for workload in corpus.WORKLOADS:
        for smoke in (False, True):
            for index, job in enumerate(corpus.build(workload, SEED, smoke)):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = ratprime.cli.main(job.argv)
                report = json.loads(out.getvalue())
                del report["timing_ms"]
                digest = hashlib.sha256(json.dumps(report, sort_keys=True).encode()).hexdigest()
                line = f"{workload} {int(smoke)} {index} {code} {digest}"
                print(line)
                total.update(line.encode() + b"\n")
                jobs += 1
    print(f"total {jobs} {total.hexdigest()}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
