"""Mutation sweep over frond modules: flipped comparisons and deleted raises.

Each mutant changes one site: it flips one comparison operator (< and
<=, > and >=, == and !=, in and not in, is and is not), or it turns one
raise statement into pass.  The sweep copies the checkout into a
temporary directory, mutates the parsed module and writes ast.unparse
of it there (never into this checkout's src/), and runs the tier-1 suite
on the copy with -x, hypothesis seed SEED and a TIMEOUT per mutant, one
mutant at a time.  A mutant is killed when the suite fails or times
out.  A survivor whose original text (the comparison "left op right",
or the whole raise statement) holds a fragment of EQUIVALENT is
reported with that fragment's reason; any other survivor is real and
wants a new test.

Run from the repository root, naming modules of src/frond:

    python tests/mutants.py tracker.py [embedding.py ...]

The exit status is 1 when a real survivor remains.  The sweep is not
part of tier-1 (pytest does not collect this file): each mutant runs the
whole suite, so a module takes minutes.
"""

from __future__ import annotations

import argparse
import ast
import os
import shutil
import signal
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
COPIED = ("src", "tests", "README.md", "pyproject.toml")
SEED = 0
TIMEOUT = 300.0

FLIPS = {
    ast.Lt: ast.LtE,
    ast.LtE: ast.Lt,
    ast.Gt: ast.GtE,
    ast.GtE: ast.Gt,
    ast.Eq: ast.NotEq,
    ast.NotEq: ast.Eq,
    ast.In: ast.NotIn,
    ast.NotIn: ast.In,
    ast.Is: ast.IsNot,
    ast.IsNot: ast.Is,
}

# (module, fragment of the unparsed comparison or raise) -> why a survivor there is expected.
EQUIVALENT = {
    ("simulator.py", "rng.random() < "): (
        "rng.random() is a multiple of 2**-53 in [0, 1), so < p and <= p differ only on a draw "
        "exactly equal to p, at most once in 2**53 draws"
    ),
    ("embedding.py", "_SMALLEST_NORMAL <= sq"): (
        "normalize: only a squared norm of exactly 2**-1022 changes branch, and the rescaled "
        "branch divides the same vector by the same norm up to rounding; no test builds one"
    ),
    ("embedding.py", "abs(norm - 1.0) <= _UNIT_TOL"): (
        "normalize and normalize_rows: near 1, norm - 1.0 is exact and a multiple of 2**-53, "
        "and the double 1e-12 is not, so the two never compare equal"
    ),
    ("embedding.py", "sq >= _SMALLEST_NORMAL"): (
        "normalize_rows: a row whose squared norm is exactly 2**-1022 goes through normalize, "
        "which gives the same bits as the batch"
    ),
}


def pair_text(left: ast.expr, op: ast.cmpop, right: ast.expr) -> str:
    return ast.unparse(ast.Compare(left=left, ops=[op], comparators=[right]))


def sites(tree: ast.Module):
    """(position, list, index, replacement, original text, mutant text) per comparison operator and per raise."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            for k, op in enumerate(node.ops):
                left, right = [node.left, *node.comparators][k : k + 2]
                flipped = FLIPS[type(op)]()
                before, after = pair_text(left, op, right), pair_text(left, flipped, right)
                yield (node.lineno, node.col_offset, k), node.ops, k, flipped, before, after
        for _, body in ast.iter_fields(node):
            for i, stmt in enumerate(body if isinstance(body, list) else ()):
                if isinstance(stmt, ast.Raise):
                    yield (stmt.lineno, stmt.col_offset, 0), body, i, ast.Pass(), ast.unparse(stmt), "pass"


def mutants(module: str, source: str):
    """Yield (line, original -> mutant, mutated source, allowed reason or None) per site, in source order."""
    tree = ast.parse(source)
    for (line, _, _), slots, i, replacement, before, after in sorted(sites(tree), key=lambda site: site[0]):
        original, slots[i] = slots[i], replacement
        mutated = ast.unparse(tree)
        slots[i] = original
        reason = next((why for (name, fragment), why in EQUIVALENT.items() if name == module and fragment in before), None)
        yield line, f"{before} -> {after}", mutated, reason


def run_suite(copy: Path) -> str:
    """'passed', 'failed' or 'timeout' for tier-1 on the copy."""
    shutil.rmtree(copy / ".hypothesis", ignore_errors=True)
    env = dict(os.environ, PYTHONPATH=str(copy / "src"), PYTHONDONTWRITEBYTECODE="1")
    command = [
        sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider",
        "--continue-on-collection-errors", f"--hypothesis-seed={SEED}",
    ]
    proc = subprocess.Popen(
        command, cwd=copy, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, start_new_session=True
    )
    try:
        return "passed" if proc.wait(timeout=TIMEOUT) == 0 else "failed"
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        return "timeout"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("modules", nargs="+", help="file names under src/frond, e.g. tracker.py")
    modules = [Path(m).name for m in parser.parse_args(argv).modules]

    counts = {"killed": 0, "equivalent": 0, "survived": 0}
    with tempfile.TemporaryDirectory(prefix="frond-mutants-") as tmp:
        copy = Path(tmp)
        for name in COPIED:
            src = ROOT / name
            if src.is_dir():
                shutil.copytree(src, copy / name, ignore=shutil.ignore_patterns("__pycache__"))
            else:
                shutil.copy2(src, copy / name)
        # Every mutant is an unparsed module, so the baseline runs on the unparsed originals.
        originals = {}
        for module in modules:
            target = copy / "src" / "frond" / module
            originals[module] = target.read_text(encoding="utf-8")
            target.write_text(ast.unparse(ast.parse(originals[module])), encoding="utf-8")
        if run_suite(copy) != "passed":
            print("tier-1 does not pass on the unparsed, unmutated copy; nothing to judge", file=sys.stderr)
            return 2
        for module in modules:
            target = copy / "src" / "frond" / module
            unparsed = target.read_text(encoding="utf-8")
            try:
                for line, flip, mutated, reason in mutants(module, originals[module]):
                    target.write_text(mutated, encoding="utf-8")
                    outcome = run_suite(copy)
                    if outcome != "passed":
                        verdict = "killed" if outcome == "failed" else "killed (timeout)"
                        counts["killed"] += 1
                    elif reason is not None:
                        verdict = f"equivalent: {reason}"
                        counts["equivalent"] += 1
                    else:
                        verdict = "SURVIVED"
                        counts["survived"] += 1
                    print(f"{module}:{line}: {flip}: {verdict}", flush=True)
            finally:
                target.write_text(unparsed, encoding="utf-8")
    total = sum(counts.values())
    print(
        f"{total} mutants, hypothesis seed {SEED}: {counts['killed']} killed, "
        f"{counts['equivalent']} equivalent survivors, {counts['survived']} real survivors"
    )
    return 1 if counts["survived"] else 0


if __name__ == "__main__":
    sys.exit(main())
