"""The benchmark's own tests: smoke runs of every workload and mode, and the
checker's ability to reject wrong reports.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import check  # noqa: E402
import corpus  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402


def _bench(*args, cwd=run.ROOT):
    return subprocess.run([sys.executable, str(Path("perfbench") / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=120)


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", corpus.WORKLOADS)
def test_smoke_run_is_correct(workload, trace):
    done = _bench("--workload", workload, "--seed", "0", "--seconds", "0",
                  "--trace", trace, "--smoke")
    assert done.returncode == 0, done.stderr
    result = json.loads(done.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True, done.stderr
    assert result["failed"] == 0 and result["attempted"] >= 1
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"]
             for m in declared["per_layer" if trace == "1" else "end_to_end"]}
    assert {name: m["unit"] for name, m in result["metrics"].items()} == units


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = _bench("--workload", "certify-Q", "--seed", "0", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


def test_corpus_depends_only_on_the_seed():
    assert corpus.build("oracle-ring", 4) == corpus.build("oracle-ring", 4)
    assert corpus.build("oracle-ring", 4) != corpus.build("oracle-ring", 5)
    probe = ("import sys, corpus; corpus.build('certify-Q', 1); "
             "sys.exit(any(m.startswith('ratprime') for m in sys.modules))")
    assert subprocess.run([sys.executable, "-c", probe], cwd=HERE, timeout=60).returncode == 0


def _report(job):
    cli = sys.modules[f"{run.load_program().__name__}.cli"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(job.argv) == 0
    return json.loads(out.getvalue())


def _problems(job, report):
    return check.problems(job, 0, report, check.validator(), __import__("random").Random(1))


def test_checker_accepts_and_rejects_witnesses():
    g, h = [0, 1, 1], [0, 2, 0, 1]          # x^2 + x composed with x^3 + 2x
    job = corpus.Job("decompose", 5, (tuple(corpus.compose(g, h, 5)), (1,)),
                     "poly-composite", composite=True)
    report = _report(job)
    assert report["verdict"]["witness_g"] is not None
    assert _problems(job, report) == []
    wrong = copy.deepcopy(report)
    wrong["verdict"]["witness_h"] = "x^3+x"
    assert any("recompose" in p for p in _problems(job, wrong))
    absent = copy.deepcopy(report)
    absent["verdict"]["witness_g"] = absent["verdict"]["witness_h"] = None
    absent["oracle"]["status"] = "exhausted"
    assert any("exhaustively absent" in p for p in _problems(job, absent))


def test_checker_rejects_a_wrong_critical_resultant_and_a_false_certificate():
    f = corpus.compose([1, 0, 3], [0, -1, 0, 2], 0)
    job = corpus.Job("analyze", 0, (tuple(f), (1,)), "poly-composite", composite=True)
    report = _report(job)
    assert _problems(job, report) == []
    wrong = copy.deepcopy(report)
    wrong["critical_values"]["disc_coefficients"][0] += "1"
    assert any("critical resultant" in p for p in _problems(job, wrong))
    prime = copy.deepcopy(report)
    prime["verdict"]["kind"] = "PrimeByValency"
    assert any("certified prime" in p for p in _problems(job, prime))


def test_tracer_restores_every_binding():
    package = run.load_program()
    owners = [m for name, m in sys.modules.items() if name.startswith(package.__name__)]
    owners += [package.Poly, package.RatFun]
    before = [dict(vars(owner)) for owner in owners]
    tracer = tracing.Tracer()
    tracer.install(package)
    assert package.Poly.__dict__["__mul__"] is not before[-2]["__mul__"]
    tracer.uninstall()
    for owner, saved in zip(owners, before):
        assert all(vars(owner)[k] is v for k, v in saved.items()), owner
