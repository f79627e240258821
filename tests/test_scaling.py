"""Scaling guard: on a wide program of sibling modules, the constructor index
keeps coherence pair checks at the planted conflict and head matches linear
in the number of modules, parsing, checking and the core pass each cost a
fixed number of opcodes per module, and `run`'s core pass barely grows with
modules its `main` does not reach. On a chain of imports, checking costs the
same per module however long the chain, and no check leaves cyclic garbage."""

import gc
import sys

import pytest
from conftest import CORPUS, check_inline
from test_acceptance import POLICIES, PROGRAMS

from slc import coherence
from slc.corekit import core_check, elaborate
from slc.decls import ModelDecl
from slc.parser import parse_module_bytes

LOCAL_TYPES = 10


def wide_program(siblings: int) -> dict[str, str]:
    """A base module with `Show`, a shared type and `Show[Option[a]]`, plus
    `siblings` modules that each import only the base, define local types
    with `Show` models and use them. Siblings 1 and `siblings - 2` both
    model the shared type."""
    files = {
        "base": """\
module base
concept Show[Self] { fn show(x: Self) -> String }
data Shared { MkShared }
model Show[Option[a]] where Show[a] {
  fn show(o: Option[a]) -> String { match o { Some(x) => concat("some ", show(x)), None => "none" } }
}
"""
    }
    planted = {1, siblings - 2}
    for k in range(siblings):
        lines = [f"module s{k:02d}", "import base"]
        for j in range(LOCAL_TYPES):
            lines += [
                f"data T{k:02d}x{j} {{ C{k:02d}x{j} }}",
                f'model Show[T{k:02d}x{j}] {{ fn show(x: T{k:02d}x{j}) -> String {{ "t{j}" }} }}',
            ]
        if k in planted:
            lines.append(f'model Show[Shared] {{ fn show(x: Shared) -> String {{ "shared {k}" }} }}')
        body = '""'
        for j in range(LOCAL_TYPES):
            body = f"concat({body}, concat(show(C{k:02d}x{j}), show(Some(C{k:02d}x{j}))))"
        lines.append(f"fn use{k:02d}() -> String {{ {body} }}")
        files[f"s{k:02d}"] = "\n".join(lines) + "\n"
    return files


def counted_check(monkeypatch, siblings: int) -> tuple[int, int]:
    """(pair_conflict calls, ModelDecl.match calls) for one check."""
    calls = {"pair": 0, "match": 0}
    pair_conflict, match = coherence.pair_conflict, ModelDecl.match

    def counted_pair(*args):
        calls["pair"] += 1
        return pair_conflict(*args)

    def counted_match(self, targets):
        calls["match"] += 1
        return match(self, targets)

    with monkeypatch.context() as patch:
        patch.setattr(coherence, "pair_conflict", counted_pair)
        patch.setattr(ModelDecl, "match", counted_match)
        result = check_inline("use-site", **wide_program(siblings))
    [conflict] = result.diagnostics
    assert conflict.code == "E-LINK-CONFLICT"
    assert conflict.module == f"s{siblings - 2:02d}"
    assert "s01.<model 10>" in conflict.message
    return calls["pair"], calls["match"]


@pytest.mark.parametrize("siblings", [4, 12])
def test_only_the_planted_pair_is_checked(monkeypatch, siblings):
    pairs, _ = counted_check(monkeypatch, siblings)
    assert pairs == 1


def test_head_matches_grow_linearly_with_modules(monkeypatch):
    _, small = counted_check(monkeypatch, 4)
    _, large = counted_check(monkeypatch, 12)
    assert large <= 3 * small, (small, large)


def opcodes(run) -> int:
    """Opcodes Python executes in `run()`, counted with `sys.settrace`."""
    count = 0

    def trace(frame, event, arg):
        nonlocal count
        frame.f_trace_opcodes = True
        count += event == "opcode"
        return trace

    sys.settrace(trace)
    try:
        run()
    finally:
        sys.settrace(None)
    return count


def core_pass_opcodes(siblings: int, app: str | None = None) -> int:
    """Opcodes `elaborate` and `core_check` run on `wide_program` with the
    second planted `Show[Shared]` model dropped, so that it links. With an
    `app` module, only what its `main` reaches is elaborated, as `run` does."""
    files = wide_program(siblings)
    planted = f"s{siblings - 2:02d}"
    files[planted] = "".join(
        line for line in files[planted].splitlines(keepends=True) if "Shared" not in line
    )
    if app is not None:
        files["app"] = app
    result = check_inline("use-site", **files)
    assert result.ok, result.diagnostics
    program = result.program
    roots = None if app is None else [program.entry]
    diagnostics = []
    count = opcodes(lambda: diagnostics.extend(core_check(elaborate(program, roots))))
    assert diagnostics == []
    return count


def check_opcodes(siblings: int) -> int:
    """Opcodes `check_sources` runs on `wide_program`, planted conflict included."""
    files = wide_program(siblings)
    return opcodes(lambda: check_inline("use-site", **files))


def test_core_pass_opcodes_per_module():
    """Each sibling adds ten models, their dictionaries and a use of each:
    every core node is elaborated and checked at a small fixed cost, and
    each instantiation is built once."""
    assert (core_pass_opcodes(12) - core_pass_opcodes(4)) / 8 <= 57_000


def test_run_core_pass_skips_unreached_modules():
    """`main` uses one sibling, so `run` elaborates and checks the same 13
    definitions whatever the number of siblings, and looks up only the data
    types and concepts they name: 10 opcodes per sibling when set (218
    while `Elaborator.__init__` filed every module's declarations), against
    about 47,800 when the whole program is elaborated and checked."""
    app = "module app\nimport s00\nfn main() -> Unit { print(use00()) }\n"
    assert (core_pass_opcodes(12, app) - core_pass_opcodes(4, app)) / 8 <= 40


def test_check_opcodes_per_module():
    """Each sibling adds ten data types, their models and a function that
    uses each: sema checks every expression through one rule and looks each
    global name up once per module, a call of a callee without type
    parameters checks its arguments against the parameters, and the lexer
    and parser read each token once. 119,198 opcodes per sibling when set
    (166,172 before that), bounded a third below 181,739."""
    assert (check_opcodes(12) - check_opcodes(4)) / 8 <= 121_000


def test_parse_opcodes_per_module():
    """The lexer and parser alone, on the same siblings: about 125 opcodes
    for each of a sibling's 444 tokens. 55,156 opcodes per sibling when set,
    74,858 before the lexer's one table and the flat expression chain."""

    def parse_opcodes(siblings: int) -> int:
        sources = [(f"{name}.sl", text.encode()) for name, text in wide_program(siblings).items()]
        return opcodes(lambda: [parse_module_bytes(data, path) for path, data in sources])

    assert (parse_opcodes(12) - parse_opcodes(4)) / 8 <= 58_000


def chain_program(modules: int) -> dict[str, str]:
    """`modules` modules in one import chain, each with ten data types and
    ten functions that return the constructors of the module before it."""
    files = {}
    for k in range(modules):
        lines = [f"module c{k:03d}"] + ([f"import c{k - 1:03d}"] if k else [])
        for j in range(10):
            lines.append(f"data D{k:03d}x{j} {{ C{k:03d}x{j} }}")
            if k:
                lines.append(f"fn f{k:03d}x{j}() -> D{k - 1:03d}x{j} {{ C{k - 1:03d}x{j} }}")
        files[f"c{k:03d}"] = "\n".join(lines) + "\n"
    return files


def test_check_opcodes_per_module_stay_flat_along_an_import_chain():
    """Each checked module is indexed once and its importers copy that
    index, so a module costs about the same at the end of a long chain as
    at the end of a short one: 1.07 times as much from 40 to 80 modules as
    from 10 to 20 when set, against 1.76 times when every module indexed
    all its transitive imports again."""

    def chain_opcodes(modules: int) -> int:
        files = chain_program(modules)
        result = []
        count = opcodes(lambda: result.append(check_inline("use-site", **files)))
        assert result[0].ok, result[0].diagnostics
        return count

    short = (chain_opcodes(20) - chain_opcodes(10)) / 10
    long = (chain_opcodes(80) - chain_opcodes(40)) / 40
    assert long <= 1.5 * short, (short, long)


@pytest.mark.parametrize("policy", POLICIES)
def test_checking_leaves_no_cyclic_garbage(policy):
    """Everything `check_sources` builds is freed by reference counting, so
    the collector finds no garbage after checking `wide_program` or any of
    the corpus programs, under any policy."""
    programs = [wide_program(6)] + [
        {name.removesuffix(".sl"): (CORPUS / name).read_text() for name in names}
        for names in PROGRAMS.values()
    ]
    enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        for files in programs:
            check_inline(policy, **files)
            assert gc.collect() == 0, sorted(files)
    finally:
        if enabled:
            gc.enable()
