"""The collector policy of `slc.cli.main`: each command runs with a raised
young-generation threshold, and the caller's collector settings and heap
come back when it ends; the heap is frozen only as the process exits. It is
safe because checking leaves no cyclic garbage
(`test_scaling.py::test_checking_leaves_no_cyclic_garbage`) and a run
leaves the same garbage however long it loops."""

import gc
import subprocess
import sys

import pytest
from conftest import CORPUS, slc_env
from test_evaluator import ITER_LIB, range_fold
from test_scaling import wide_program

from slc import cli


def write(directory, files: dict[str, str]) -> list[str]:
    """Write {module_file_stem: source_text} under `directory`; the paths."""
    directory.mkdir(exist_ok=True)
    paths = [directory / f"{name}.sl" for name in files]
    for path, text in zip(paths, files.values()):
        path.write_text(text)
    return [str(path) for path in paths]


def fail(*args):
    raise RuntimeError("escaped")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "argv, code",
    [
        (["check", "iter_lib.sl", "range_iter.sl"], 0),
        (["run", "iter_lib.sl", "range_iter.sl"], 0),
        (["explain", "range_iter.sl:21:26", "iter_lib.sl", "range_iter.sl"], 0),
        (["check", "--policy", "none", "iter_lib.sl"], 2),
        (["check", "missing.sl"], 2),
        (["check", "iter_lib.sl"], RuntimeError),
    ],
    ids=["check", "run", "explain", "usage", "unreadable", "exception"],
)
def test_main_restores_the_callers_collector_settings(argv, code, enabled, monkeypatch, capsys):
    monkeypatch.chdir(CORPUS)
    if code is RuntimeError:
        monkeypatch.setattr(cli, "check_sources", fail)
    thresholds, was_enabled = gc.get_threshold(), gc.isenabled()
    gc.set_threshold(500, 7, 3)
    (gc.enable if enabled else gc.disable)()
    try:
        if code is RuntimeError:
            with pytest.raises(RuntimeError):
                cli.main(argv)
        else:
            assert cli.main(argv) == code
        assert gc.get_threshold() == (500, 7, 3)
        assert gc.isenabled() is enabled
    finally:
        gc.set_threshold(*thresholds)
        (gc.enable if was_enabled else gc.disable)()
    capsys.readouterr()


def test_importing_slc_leaves_the_collector_as_it_was():
    probe = (
        "import gc; before = gc.get_threshold(), gc.isenabled(); "
        "import slc, slc.cli; print(before == (gc.get_threshold(), gc.isenabled()))"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=slc_env(), check=True
    )
    assert proc.stdout == "True\n"


# A cycle made before `sl` runs in a fresh interpreter, and whether a full
# collection after it frees the cycle and leaves the freeze count as it was.
CYCLE_BEFORE_MAIN = """\
import gc, io, sys, weakref
import slc.cli
class Node: pass
node = Node(); node.self = node
alive = weakref.ref(node)
del node
frozen = gc.get_freeze_count()
sys.stdout = io.StringIO()
code = slc.cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
pending = alive() is not None
gc.collect()
print(code, pending, alive() is None, gc.get_freeze_count() == frozen)
"""


@pytest.mark.parametrize("command", ["check", "run"])
def test_main_leaves_the_callers_heap_collectable(command):
    """`main` freezes no part of the caller's heap: a cycle the caller made
    before the call is still there after it and goes at the next full
    collection."""
    proc = subprocess.run(
        [sys.executable, "-c", CYCLE_BEFORE_MAIN, command, "iter_lib.sl", "range_iter.sl"],
        capture_output=True, text=True, env=slc_env(), cwd=CORPUS, check=True,
    )
    assert proc.stdout == "0 True True True\n", proc.stderr


def test_the_heap_is_frozen_as_the_process_exits():
    """An exit hook registered before `main` runs after `main`'s own, which
    freezes the heap so that the interpreter's last collections skip it;
    calling `main` again registers no second hook."""
    probe = (
        "import atexit, gc, io, sys; import slc.cli; "
        "atexit.register(lambda: print(gc.get_freeze_count() > 0)); "
        "sys.stdout = io.StringIO(); slc.cli.main(['check', 'iter_lib.sl']); "
        "hooks = atexit._ncallbacks(); slc.cli.main(['check', 'iter_lib.sl']); "
        "sys.stdout = sys.__stdout__; print(gc.get_freeze_count(), atexit._ncallbacks() - hooks)"
    )
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, env=slc_env(), cwd=CORPUS,
        check=True,
    )
    assert proc.stdout == "0 0\nTrue\n", proc.stderr


# Counts the collections that start while `sl` runs in a fresh interpreter.
COUNT_PASSES = """\
import gc, io, sys
import slc.cli
passes = []
gc.callbacks.append(lambda phase, info: phase == "start" and passes.append(info["generation"]))
sys.stdout = io.StringIO()
code = slc.cli.main(sys.argv[1:])
sys.stdout = sys.__stdout__
print(code, len(passes))
"""


def test_check_of_a_wide_program_runs_no_collection(tmp_path):
    """`sl check` on 13 modules builds a few tens of thousands of
    containers and frees them by reference counting: at the interpreter's
    default threshold the collector ran 38 passes there and found nothing."""
    names = write(tmp_path, wide_program(12))
    proc = subprocess.run(
        [sys.executable, "-c", COUNT_PASSES, "check", *names],
        capture_output=True, text=True, env=slc_env(), cwd=tmp_path, check=True,
    )
    assert proc.stdout == "1 0\n", proc.stderr


def test_run_garbage_does_not_grow_with_the_fold(tmp_path, capsys):
    """Every evaluation step of a fold is freed by reference counting, so
    the cyclic garbage `sl run` leaves is the same at ten times the length
    (1,263 objects when set): a run makes no more work for the collector
    however long it loops."""
    lengths = (700, 7000)
    argv = {
        n: ["run", *write(tmp_path / str(n), {"iter": ITER_LIB, "range_iter": range_fold(n)})]
        for n in lengths
    }
    assert cli.main(argv[lengths[0]]) == 0  # loads the back end
    garbage = {}
    enabled = gc.isenabled()
    for n in lengths:
        gc.collect()
        gc.disable()
        try:
            assert cli.main(argv[n]) == 0
            garbage[n] = gc.collect()
        finally:
            if enabled:
                gc.enable()
    assert garbage[lengths[0]] == garbage[lengths[1]], garbage
    sums = [n * (n - 1) // 2 for n in (lengths[0], *lengths)]
    assert capsys.readouterr().out.split() == [str(total) for total in sums]
