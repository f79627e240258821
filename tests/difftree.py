"""Differential driver: run the same `sl` invocations against this tree's
`src/` and another tree's, and list every invocation whose exit code,
stdout or stderr differ.

    python tests/difftree.py OTHER_TREE

The invocations are those of `test_cli_bytes.invocations()`, the explain
invocations of `test_explain_text.invocations()` in text and with `--json`,
one round of every `bench/workloads.py` workload at seed 1, a fuel sweep:
`run --json --fuel N` of each of FUEL_PROGRAMS for every N from 0 to three
past the steps the program needs to end or fail, `check --json` and `run
--json` of each of `test_sema.SHADOWING`'s programs, and `check --json` of
a CHAIN_LETS-let chain of each shape of `test_scaling`. They are built once,
from this tree, and each tree runs all of them on the same inputs, in fresh
interpreters of BATCH invocations each. Exits 1 when any invocation
differs. pytest does not collect this file.
"""

from __future__ import annotations

import importlib.util
import itertools
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
BATCH = 150
SEED = 1

# The programs of the fuel sweep: `test_evaluator`'s that keep closures or
# fail in a match, and a 40-let chain of each shape of `test_scaling`.
FUEL_PROGRAMS = ("KEEPING_LETS", "PICK_IN_A_PAIR", "WILDCARD_ARM", "CAPTURING_CLOSURES")
CHAIN_LETS = 40

# Runs a JSON list of [cwd, argv] from stdin through `slc.cli.main` and
# prints one [exit, stdout, stderr] per invocation; an escaping exception
# counts as exit -1 with its last traceback line as stderr.
CHILD = """
import contextlib, io, json, os, sys, traceback
from slc.cli import main
results = []
for cwd, argv in json.load(sys.stdin):
    os.chdir(cwd)
    out, err = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    except Exception:
        code = -1
        err.write(traceback.format_exc().strip().splitlines()[-1])
    results.append([code, out.getvalue(), err.getvalue()])
sys.stdout.write(json.dumps(results))
"""


def invocations(workdir: Path) -> list[tuple[str, list[str]]]:
    """(cwd, argv) of every invocation; workload inputs are written under `workdir`."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(ROOT / "tests"))
    import test_cli_bytes
    import test_explain_text

    corpus = str(test_cli_bytes.CORPUS)
    with test_cli_bytes.in_corpus():
        out = [(corpus, argv) for argv in test_cli_bytes.invocations()]
        for argv in test_explain_text.invocations():
            out += [(corpus, argv), (corpus, argv[:1] + ["--json"] + argv[1:])]
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules["workloads"] = workloads  # dataclasses looks the module up by name
    spec.loader.exec_module(workloads)
    for name in workloads.WORKLOADS:
        for op in workloads.build(name, SEED, ROOT, workdir / name):
            out.append((str(op.cwd), list(op.argv)))
    return out + fuel_sweep(workdir / "fuel") + binder_programs(workdir / "binders")


def fuel_sweep(workdir: Path) -> list[tuple[str, list[str]]]:
    """(cwd, argv) of `run --json --fuel N` of each fuel program, for every
    N from 0 to three past the fewest steps at which this tree's run of it
    stops reporting the budget; each program is written under `workdir`."""
    import test_evaluator
    import test_scaling
    from conftest import check_inline

    from slc.corekit import elaborate
    from slc.evaluator import STEPS_EXCEEDED, run_program

    programs = {name: getattr(test_evaluator, name) for name in FUEL_PROGRAMS}
    for shape in test_scaling.LET_BOUNDS:
        programs[f"chain_{shape}"] = test_scaling.let_chain(CHAIN_LETS, shape)
    out = []
    for label, source in programs.items():
        module = source.split()[1]
        core = elaborate(check_inline(**{module: source}).program)
        need = next(
            fuel for fuel in itertools.count()
            if getattr(run_program(core, fuel), "message", None) != STEPS_EXCEEDED
        )
        (workdir / label).mkdir(parents=True)
        (workdir / label / f"{module}.sl").write_text(source, encoding="utf-8")
        for fuel in range(need + 4):
            out.append((str(workdir / label), ["run", "--json", "--fuel", str(fuel), f"{module}.sl"]))
    return out


def binder_programs(workdir: Path) -> list[tuple[str, list[str]]]:
    """(cwd, argv) of `check --json` and `run --json` of each shadowing
    program, and of `check --json` of each chain; each program is written
    under `workdir`."""
    import test_scaling
    import test_sema

    programs = [(p.id, p.values[0], ("check", "run")) for p in test_sema.SHADOWING]
    programs += [(f"chain_{shape}", test_scaling.let_chain(CHAIN_LETS, shape), ("check",))
                 for shape in test_scaling.LET_BOUNDS]
    out = []
    for label, source, commands in programs:
        (workdir / label).mkdir(parents=True)
        (workdir / label / "m.sl").write_text(source, encoding="utf-8")
        out += [(str(workdir / label), [command, "--json", "m.sl"]) for command in commands]
    return out


def run_all(tree: Path, calls: list[tuple[str, list[str]]]) -> list[list]:
    env = dict(os.environ, PYTHONPATH=str(tree / "src"), SL_COLOR="0")
    results = []
    for i in range(0, len(calls), BATCH):
        proc = subprocess.run(
            [sys.executable, "-c", CHILD],
            input=json.dumps(calls[i : i + BATCH]),
            capture_output=True,
            text=True,
            env=env,
            check=True,
        )
        results += json.loads(proc.stdout)
    return results


def main(argv: list[str]) -> int:
    if len(argv) != 1 or not (Path(argv[0]) / "src" / "slc").is_dir():
        sys.stderr.write("usage: python tests/difftree.py OTHER_TREE (a checkout with src/slc)\n")
        return 2
    other = Path(argv[0]).resolve()
    with tempfile.TemporaryDirectory() as tmp:
        calls = invocations(Path(tmp))
        mine, theirs = run_all(ROOT, calls), run_all(other, calls)
    differing = 0
    for (cwd, args), a, b in zip(calls, mine, theirs):
        parts = [part for part, x, y in zip(("exit", "stdout", "stderr"), a, b) if x != y]
        if parts:
            differing += 1
            print(f"differs in {', '.join(parts)}: sl {' '.join(args)}")
    print(f"{len(calls)} invocations, {differing} differing")
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
