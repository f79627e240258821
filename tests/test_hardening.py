"""Adversarial inputs and less-traveled semantic paths."""

import pytest

from conftest import check_inline, codes

from slc import ast as A
from slc.parser import parse_module


@pytest.mark.parametrize(
    "src",
    [
        "",
        "module",
        "module m extra",
        "module m\nconcept",
        "module m\nconcept C[] { }",
        "module m\nconcept C[Self { }",
        "module m\nmodel : C[U64] { }",
        "module m\nfn f( -> U64 { }",
        "module m\nfn f() -> U64 { }",
        "module m\nfn f() -> U64 { 1:U64 ",
        "module m\nfn f() -> U64 { match x { } }",
        "module m\nfn f() -> U64 { (1:U64, 2:U64, 3:U64) }",
        "module m\ndata D { }",
        "module m\nfn f() -> U64 { \"unterminated }",
        "module m\nfn f() -> U64 { 0x:U64 }",
        "module m\n@",
        "module m\nfn f() -> U64 { 1² }",
        "module m\n²",
        "module m\nfn f() -> U64 { let x = 1:U64 }",
    ],
)
def test_malformed_inputs_are_diagnosed_not_crashes(src):
    result = parse_module(src, "bad.sl")
    assert isinstance(result, list)
    assert result and result[0].code == "E-PARSE"


def test_every_prefix_of_every_corpus_file_parses_or_is_diagnosed(corpus_dir):
    """A file cut off anywhere, inside a token or a comment too, gives an AST
    or E-PARSE diagnostics; the parser never reads past `eof`."""
    for path in sorted(corpus_dir.glob("*.sl")):
        text = path.read_text(encoding="utf-8")
        for end in range(len(text) + 1):
            out = parse_module(text[:end], path.name)
            if isinstance(out, list):
                assert out and all(d.code == "E-PARSE" for d in out), (path.name, end)
            else:
                assert isinstance(out, A.ModuleAST), (path.name, end)


def test_refinement_chain_projects_through_two_levels():
    src = """\
module m
concept A[Self] { fn fa(x: Self) -> String }
concept B[Self] where A[Self] { fn fb(x: Self) -> String }
concept C[Self] where B[Self] { fn fc(x: Self) -> String }
model a1: A[U64] { fn fa(x: U64) -> String { "a" } }
model b1: B[U64] { fn fb(x: U64) -> String { "b" } }
model c1: C[U64] { fn fc(x: U64) -> String { "c" } }
fn useAll[T](x: T) -> String where C[T] {
  concat(fa(x), concat(fb(x), fc(x)))
}
fn main() -> Unit { print(useAll(1:U64)) }
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics
    from slc.resolver import GivenLeaf

    use_all = result.modules["m"].funs["useAll"]
    leaves = {r.constraint.concept.split(".")[-1]: r.resolution for r in use_all.goal_records}
    assert isinstance(leaves["A"], GivenLeaf) and leaves["A"].via == (0, 0)
    assert isinstance(leaves["B"], GivenLeaf) and leaves["B"].via == (0,)
    assert isinstance(leaves["C"], GivenLeaf) and leaves["C"].via == ()

    from slc.corekit import core_check, elaborate
    from slc.evaluator import run_program

    core = elaborate(result.program)
    assert core_check(core) == []
    _, transcript = run_program(core)
    assert transcript == ["abc"]


def test_two_param_data():
    src = """\
module m
data Either[l, r] { MkLeft(l), MkRight(r) }
fn swap(e: Either[U64, U8]) -> Either[U8, U64] {
  match e {
    MkLeft(x) => MkRight(x),
    MkRight(y) => MkLeft(y)
  }
}
fn main() -> Unit {
  match swap(MkLeft(9:U64)) {
    MkLeft(x) => print(show8(x)),
    MkRight(y) => print(show64(y))
  }
}
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics
    from slc.corekit import core_check, elaborate
    from slc.evaluator import run_program

    core = elaborate(result.program)
    assert core_check(core) == []
    assert run_program(core)[1] == ["9"]


def test_match_arms_must_agree_in_synth_mode():
    src = """\
module m
fn f(o: Option[U64]) -> U64 {
  let x = match o { Some(y) => y, None => "zero" };
  0:U64
}
"""
    result = check_inline(m=src)
    assert "E-TYPE-MISMATCH" in codes(result)


def test_annotation_must_match_expression():
    src = "module m\nfn f() -> U64 { (1:U8):U64 }\n"
    result = check_inline(m=src)
    assert "E-TYPE-MISMATCH" in codes(result)


def test_concept_subject_arity_in_where_clause():
    src = """\
module m
concept Convertible[Self, B] { fn convert(x: Self) -> B }
fn f[T](x: T) -> T where Convertible[T] { x }
"""
    result = check_inline(m=src)
    assert "E-ARITY" in codes(result)


def test_let_shadowing():
    src = """\
module m
fn f() -> U64 {
  let x = 1:U64;
  let x = add64(x, 1:U64);
  x
}
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics


def test_wrong_constructor_in_match():
    src = """\
module m
data D { MkD }
fn f(o: Option[U64]) -> U64 { match o { MkD => 0:U64, _ => 1:U64 } }
"""
    result = check_inline(m=src)
    assert "E-NAME" in codes(result)


def test_first_class_function_parameters():
    src = """\
module m
fn apply2(f: (U64, U64) -> U64, x: U64) -> U64 { f(x, x) }
fn main() -> Unit { print(show64(apply2(mul64, 6:U64))) }
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics
    from slc.corekit import core_check, elaborate
    from slc.evaluator import run_program

    core = elaborate(result.program)
    assert core_check(core) == []
    assert run_program(core)[1] == ["36"]


def test_monomorphic_user_function_as_value():
    src = """\
module m
fn double(x: U64) -> U64 { mul64(x, 2:U64) }
fn applyIt(f: (U64) -> U64, x: U64) -> U64 { f(x) }
fn main() -> Unit { print(show64(applyIt(double, 21:U64))) }
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics
    from slc.corekit import core_check, elaborate
    from slc.evaluator import run_program

    core = elaborate(result.program)
    assert core_check(core) == []
    assert run_program(core)[1] == ["42"]


def test_generic_function_not_first_class():
    src = """\
module m
fn id[T](x: T) -> T { x }
fn applyIt(f: (U64) -> U64, x: U64) -> U64 { f(x) }
fn main() -> Unit { print(show64(applyIt(id, 1:U64))) }
"""
    result = check_inline(m=src)
    assert "E-CANNOT-INFER" in codes(result)


def test_lambda_closure_captures_environment():
    src = """\
module m
fn main() -> Unit {
  let base = 40:U64;
  let adder = fn(x: U64) => add64(base, x);
  print(show64(adder(2:U64)))
}
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics
    from slc.corekit import core_check, elaborate
    from slc.evaluator import run_program

    core = elaborate(result.program)
    assert core_check(core) == []
    assert run_program(core)[1] == ["42"]


def test_deep_module_chain():
    files = {}
    prev = None
    for i in range(12):
        name = f"m{i:02d}"
        imports = f"import {prev}\n" if prev else ""
        body = (
            f"fn f{i}(x: U64) -> U64 {{ add64(x, 1:U64) }}\n"
            if prev is None
            else f"fn f{i}(x: U64) -> U64 {{ add64(f{i-1}(x), 1:U64) }}\n"
        )
        files[name] = f"module {name}\n{imports}{body}"
        prev = name
    files["top"] = (
        "module top\nimport m11\nfn main() -> Unit { print(show64(f11(0:U64))) }\n"
    )
    result = check_inline(**files)
    assert result.ok, result.diagnostics
    from slc.corekit import core_check, elaborate
    from slc.evaluator import run_program

    core = elaborate(result.program)
    assert core_check(core) == []
    assert run_program(core)[1] == ["12"]


def test_model_context_variable_must_occur_in_head():
    src = """\
module m
concept A[Self] { fn fa(x: Self) -> Self }
concept B[Self] { fn fb(x: Self) -> Self }
model bad: A[U64] where B[t] { fn fa(x: U64) -> U64 { x } }
"""
    result = check_inline(m=src)
    assert "E-NAME" in codes(result)


def test_scoped_tagging_prefers_inner_model():
    lib = """\
module lib
concept Keyed[Self] { type Key }
model libKey: Keyed[U64] { type Key = String }
fn libKeyOf() -> U64.Key { "lib" }
"""
    app = """\
module app
import lib
model appKey: Keyed[U64] { type Key = U8 }
fn appKeyOf() -> U64.Key { 7:U8 }
"""
    result = check_inline("scoped", lib=lib, app=app)
    assert result.ok, result.diagnostics
    from slc.types import render

    lib_fn = result.modules["lib"].funs["libKeyOf"]
    app_fn = result.modules["app"].funs["appKeyOf"]
    assert render(lib_fn.ret) == "lib.libKey.Key"
    assert render(app_fn.ret) == "app.appKey.Key"  # inner model shadows the import


CYCLIC_REFINEMENT = {
    "self": (
        "concept S[Self] where S[Self] { fn s(x: Self) -> Self }\n"
        "fn g[t](x: t) -> t where S[t] { x }\n",
        ["E-NAME"],
    ),
    "two-concept": (
        "concept A[Self] where B[Self] { fn a(x: Self) -> Self }\n"
        "concept B[Self] where A[Self] { fn b(x: Self) -> Self }\n"
        "fn f[t](x: t) -> t where A[t] { x }\n",
        ["E-NAME", "E-NAME"],
    ),
    "growing": (
        "concept G[Self] where G[Option[Self]] { fn s(x: Self) -> Self }\n"
        "fn g[t](x: t) -> t where G[t] { x }\n",
        ["E-NAME"],
    ),
}


def _check_capped(path, command=("check", "--json")):
    """`sl check --json path`, or another `command`, in a child under a 1 GB
    address-space cap and a 20 s timeout, so a regression fails the test
    instead of exhausting memory or hanging."""
    import resource
    import subprocess
    import sys

    from conftest import slc_env

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    return subprocess.run(
        [sys.executable, "-m", "slc", *command, str(path)],
        capture_output=True,
        text=True,
        env=slc_env(),
        preexec_fn=cap_memory,
        timeout=20,
    )


@pytest.mark.parametrize("case", sorted(CYCLIC_REFINEMENT))
def test_cyclic_refinement_stops_at_its_diagnostics(case, tmp_path):
    """Closing a `where` clause under a cyclic refinement terminates."""
    import json

    body, expected = CYCLIC_REFINEMENT[case]
    path = tmp_path / "cyc.sl"
    path.write_text("module cyc\n" + body)
    proc = _check_capped(path)
    assert proc.returncode == 1, proc.stderr[-2000:]
    diags = json.loads(proc.stdout)
    assert [d["code"] for d in diags] == expected
    assert all("cyclic concept refinement" in d["message"] for d in diags)


def test_three_thousand_nested_option_types_check(tmp_path):
    """Checking stays near-linear in type depth: each level of the return
    type and of the body is matched and normalized once, not re-walked."""
    levels = 3_000
    path = tmp_path / "deep.sl"
    path.write_text(
        "module deep\n"
        f"fn f() -> {'Option[' * levels}U64{']' * levels} "
        f"{{ {'Some(' * levels}1:U64{')' * levels} }}\n"
    )
    proc = _check_capped(path)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
    assert proc.stdout == "[]\n"


def test_ten_thousand_lets_run(tmp_path):
    """A `main` of 10,000 lets in one chain checks and runs in time and
    memory linear in its length: sema and the core check bind each `let` in
    place, and the evaluator compiles the chain as one node. While each
    `let` copied its environment, `sl check` of 6,000 lets peaked at 504 MB
    and `sl run` of 30,000 was killed for want of memory."""
    lets = 10_000
    body = "".join(f"  let x{i} = add64(x{i - 1}, 1:U64);\n" for i in range(1, lets + 1))
    path = tmp_path / "lets.sl"
    path.write_text(f"module m\nfn main() -> Unit {{\n  let x0 = 0:U64;\n{body}  print(show64(x{lets}))\n}}\n")
    proc = _check_capped(path, ("run",))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, f"{lets}\n", "")


def test_emit_core_of_a_long_let_chain_is_written_in_linear_time(tmp_path):
    """`sl run --emit-core` writes its indented JSON from a stack, in time
    linear in the bytes it writes. Each line is indented to its depth, so
    those grow with the square of a let chain's length: 2,000 lets print
    68,792,455 bytes, in about 0.6 s when set against 7.9 s while the
    indenting encoder passed every piece up through one generator per
    enclosing level (10,000 lets would print about 1.7 GB)."""
    import time

    lets = 2_000
    body = "".join(f"  let x{i} = add64(x{i - 1}, 1:U64);\n" for i in range(1, lets + 1))
    path = tmp_path / "lets.sl"
    path.write_text(f"module m\nfn main() -> Unit {{\n  let x0 = 0:U64;\n{body}  print(show64(x{lets}))\n}}\n")
    start = time.perf_counter()
    proc = _check_capped(path, ("run", "--emit-core"))
    elapsed = time.perf_counter() - start
    assert (proc.returncode, len(proc.stdout), proc.stderr) == (0, 68_792_455, ""), proc.stderr[-2000:]
    assert elapsed < 4, elapsed


def _nested_parens(levels: int) -> str:
    return (
        "module deep\n"
        "fn main() -> Unit { print(show64(" + "(" * levels + "1:U64" + ")" * levels + ")) }\n"
    )


def test_nesting_past_the_parser_limit_is_a_parse_error(tmp_path, capsys):
    """30,000 nested parentheses once escaped `slc.cli.main` as a
    RecursionError; the parser's nesting limit reports E-PARSE instead."""
    import json

    from slc.cli import main

    path = tmp_path / "deep.sl"
    path.write_text(_nested_parens(30_000))
    assert main(["check", "--json", str(path)]) == 1
    [diag] = json.loads(capsys.readouterr().out)
    assert diag["code"] == "E-PARSE"
    assert "nesting exceeds the parser limit" in diag["message"]
    assert diag["span"]["start"][0] == 2  # on an opening parenthesis of line 2


def test_ten_thousand_nested_parentheses_still_check(tmp_path, capsys):
    from slc.cli import main
    from slc.parser import MAX_NESTING

    assert MAX_NESTING >= 10_000
    path = tmp_path / "deep.sl"
    path.write_text(_nested_parens(10_000))
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == "1\n"


# Every way to nest, one level past a lowered limit; names need not resolve,
# the parser alone is under test. At the real limit the costliest construct
# in Python frames, parentheses, is the 30,000-level test above.
NESTING_CONSTRUCTS = {
    "parens": lambda n: "(" * n + "x" + ")" * n,
    "call": lambda n: "f(" * n + "x" + ")" * n,
    "lambda": lambda n: "fn(x)=>" * n + "x",
    "else-if": lambda n: "if a {b} else " * n + "{b}",
    "if-block": lambda n: "if a {" * n + "b" + "} else {b}" * n,
    "match": lambda n: "match x {_=>" * n + "x" + "}" * n,
    "type-args": lambda n: "x:" + "O[" * n + "U" + "]" * n,
    "type-parens": lambda n: "x:" + "(" * n + "U" + ")" * n,
}


@pytest.mark.parametrize("construct", sorted(NESTING_CONSTRUCTS))
def test_every_nesting_construct_counts_towards_the_limit(construct, monkeypatch):
    from slc import parser

    monkeypatch.setattr(parser, "MAX_NESTING", 200)
    make = NESTING_CONSTRUCTS[construct]
    assert not isinstance(parse_module(f"module m\nfn f() -> U {{ {make(150)} }}", "m.sl"), list)
    result = parse_module(f"module m\nfn f() -> U {{ {make(201)} }}", "m.sl")
    assert isinstance(result, list)
    assert [d.code for d in result] == ["E-PARSE"]
    assert result[0].message == "nesting exceeds the parser limit of 200 levels"


def _literal_verdicts(body: str) -> list[tuple[str, str]]:
    result = check_inline(m=f"module m\nfn f() -> U64 {{ {body} }}\n")
    return [(d.code, d.message) for d in result.diagnostics]


@pytest.mark.parametrize("digits", [4_300, 4_301, 5_000, 100_000])
def test_long_decimal_literals_get_the_verdict_of_a_4300_digit_one(digits):
    """Past 4,300 digits `int()` refuses to convert a decimal string; such a
    literal once escaped `sl check` as a ValueError."""
    number = "9" * digits
    assert _literal_verdicts(f"{number}:U64") == [("E-PARSE", "literal out of range for U64")]
    assert _literal_verdicts(f"{number}:U8") == [("E-PARSE", "literal out of range for U8")]
    assert _literal_verdicts(number) == [("E-TYPE-MISMATCH", "literal out of range for U64")]


@pytest.mark.parametrize("zero", ["0", "٠"])
def test_leading_zeros_do_not_change_a_long_literal(zero, tmp_path, capsys):
    from slc.cli import main

    zeros = zero * 5_000
    out_of_range = [("E-PARSE", "literal out of range for U64")]
    assert _literal_verdicts(f"{zeros}{'9' * 20}:U64") == out_of_range
    assert _literal_verdicts(f"{zeros}256:U8") == [("E-PARSE", "literal out of range for U8")]
    mismatch = "type mismatch in this expression: expected U64, found U8"
    assert _literal_verdicts(f"{zeros}255:U8") == [("E-TYPE-MISMATCH", mismatch)]
    path = tmp_path / "zeros.sl"
    path.write_text(
        f"module m\nfn main() -> Unit {{ print(show64({zeros}18446744073709551615:U64)) }}\n",
        encoding="utf-8",
    )
    assert main(["run", str(path)]) == 0
    assert capsys.readouterr().out == "18446744073709551615\n"
