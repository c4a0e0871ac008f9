"""List what of ratprime the benchmark's full corpora never run.

    python3 tools/workload_lines.py CHECKOUT

Builds every seed-0 and seed-1 full corpus with this repository's
perfbench/corpus.py and runs each job's argv in process through the
`ratprime.cli.main` under CHECKOUT/src, under `sys.settrace`, recording the
lines run in CHECKOUT/src/ratprime.  A function's lines are those its code
object (with the comprehensions and lambdas inside it) maps bytecode to,
without its `def` line.  It prints each function no job enters, then each
entered function's lines that no job ran, as

    <module>:<def line> <qualified name> not entered
    <module>:<def line> <qualified name> missed <lines>

and last `functions <entered>/<all> lines <run>/<all>`.  The trace starts
after the import, so module and class bodies are not counted, and a function
that runs only at import (`cli._build_parsers`) reads as not entered.
Nothing is written under perfbench/ or the checkout: no bytecode, no
reports.
"""

from __future__ import annotations

import contextlib
import io
import sys
from inspect import CO_OPTIMIZED
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parent.parent
SEEDS = (0, 1)
# code objects that belong to the function they are written in
_INNER = ("<listcomp>", "<dictcomp>", "<setcomp>", "<genexpr>", "<lambda>")


def functions(path: Path) -> dict:
    """{(def line, qualified name): (key of each code object in it, lines)}
    of every function in the module at `path`; a code object's key is
    (first line, name), which is how the trace records it."""
    found = {}

    def walk(code, owner):
        for inner in code.co_consts:
            if not hasattr(inner, "co_lines"):
                continue
            if not inner.co_flags & CO_OPTIMIZED:  # a class body
                walk(inner, None)
                continue
            if inner.co_name in _INNER:
                if owner is None:  # runs at import
                    continue
                key = owner
            else:
                key = (inner.co_firstlineno, getattr(inner, "co_qualname", inner.co_name))
                found[key] = ([], set())
            keys, lines = found[key]
            keys.append((inner.co_firstlineno, inner.co_name))
            lines.update(line for _, _, line in inner.co_lines()
                         if line is not None and line != inner.co_firstlineno)
            walk(inner, key)

    walk(compile(path.read_text(), str(path), "exec"), None)
    return found


def ranges(lines) -> str:
    """"3-5, 9" for {3, 4, 5, 9}."""
    out, lines = [], sorted(lines)
    start = prev = lines[0]
    for line in lines[1:] + [None]:
        if line != prev + 1:
            out.append(str(start) if start == prev else f"{start}-{prev}")
            start = line
        prev = line
    return ", ".join(out)


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        raise SystemExit("usage: python3 tools/workload_lines.py CHECKOUT")
    src = Path(argv[0]).resolve() / "src"
    package = src / "ratprime"
    if not (package / "cli.py").is_file():
        raise SystemExit(f"error: no ratprime sources at {src}")
    sys.path[:0] = [str(src), str(ROOT / "perfbench")]
    import corpus
    import ratprime.cli
    if Path(ratprime.cli.__file__).resolve().parent != package:
        raise SystemExit(f"error: imported ratprime from {ratprime.cli.__file__}, not {src}")

    files = {str(path): path for path in sorted(package.glob("*.py"))}
    run = {}  # file -> {(first line, name) of each code object entered}, and lines

    def trace(frame, event, arg):
        code = frame.f_code
        if code.co_filename not in files:
            return None
        entered, lines = run.setdefault(code.co_filename, (set(), set()))
        entered.add((code.co_firstlineno, code.co_name))

        def line(frame, event, arg):
            if event == "line":
                lines.add(frame.f_lineno)
            return line
        return line

    for seed in SEEDS:
        for workload in corpus.WORKLOADS:
            for job in corpus.build(workload, seed, False):
                with contextlib.redirect_stdout(io.StringIO()):
                    sys.settrace(trace)
                    try:
                        ratprime.cli.main(job.argv)
                    finally:
                        sys.settrace(None)

    not_entered, missed = [], []
    n_entered = n_functions = n_run = n_lines = 0
    for name, path in files.items():
        entered, lines = run.get(name, (set(), set()))
        module = path.relative_to(src.parent)
        for (first, qualname), (keys, body) in sorted(functions(path).items()):
            n_functions += 1
            n_lines += len(body)
            if not entered.intersection(keys):
                not_entered.append(f"{module}:{first} {qualname} not entered")
                continue
            n_entered += 1
            n_run += len(body & lines)
            if body - lines:
                missed.append(f"{module}:{first} {qualname} missed {ranges(body - lines)}")
    print("\n".join(not_entered + missed))
    print(f"functions {n_entered}/{n_functions} lines {n_run}/{n_lines}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
