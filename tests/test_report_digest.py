"""The digest of every seed-0 benchmark report, pinned.

`tools/report_digest.py` runs each seed-0 job of the benchmark corpora in
process and hashes its report without `timing_ms`; its last line is pinned
here, so a change that alters any report fails this test.  Refactors and
speedups keep the pin as it is.  The pin is updated only by

- a change that alters reports on purpose: a certificate read mod a word
  prime in place of the exact D[f - t], or a new report version with honest
  verdicts and a trace section;
- a benchmark change that alters the corpus.

Such a change records the old and the new line in CHANGES.md, with the
reason, since updating the pin loosens this check for that change.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DIGEST = "total 447 26f515d4f032d4209774e26bf54002dbe93a9f706faaf1ae44c728ef268546a1"


def test_report_digest_is_pinned():
    run = subprocess.run([sys.executable, str(ROOT / "tools" / "report_digest.py"), str(ROOT)],
                         capture_output=True, text=True, check=True)
    assert run.stdout.splitlines()[-1] == DIGEST
