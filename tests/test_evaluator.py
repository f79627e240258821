"""Evaluation: fixed-width semantics, transcripts, fuel."""

import gc
import json
import random
import sys

import pytest
from conftest import check_inline
from stability import fun_records

from slc import cli
from slc.corekit import (
    CApp,
    CBuiltin,
    CCtor,
    CIf,
    CLam,
    CLet,
    CLit,
    CMatch,
    CProj,
    CTuple,
    CVar,
    core_check,
    elaborate,
)
from slc.diagnostics import Diagnostic
from slc.evaluator import (
    BUILTINS,
    DEFAULT_FUEL,
    DEPTH_EXCEEDED,
    MASK8,
    MASK64,
    Interp,
    RuntimeFailure,
    VCtor,
    VF64,
    run_program,
)
from slc.std import BUILTIN_SIGS
from slc.types import STRING, U64, App, Con, fn_type, render_constraint


def eval_expr(e, env: dict, program, fuel: int = DEFAULT_FUEL):
    """Evaluate a single core expression in an environment."""
    interp = Interp(program, fuel)
    value = interp.settle(lambda: interp.eval(e, env))
    return value, interp.transcript


def builtin(interp, name: str, args: list):
    """The builtin `name` applied to `args` by `interp`."""
    return interp.apply(interp.builtins[name], *args)


ITER = """\
module iter

concept Iterator[Self] {
  type Element
  fn next(it: Self) -> Option[(Self.Element, Self)]
}

fn fold[A, B](xs: A, acc: B, f: (B, A.Element) -> B) -> B where Iterator[A] {
  match next(xs) {
    Some(p) => fold(snd(p), f(acc, fst(p)), f),
    None => acc
  }
}

model bytes64: Iterator[U64] {
  type Element = U8
  fn next(it: U64) -> Option[(U8, U64)] {
    if eq64(it, 0:U64) { None } else { Some((trunc8(band(it, 255:U64)), shr(it, 8:U64))) }
  }
}

fn main() -> Unit {
  print(show8(fold(0x2a2a:U64, 0:U8, add8)))
}
"""


ITER_LIB = ITER.replace("fn main() -> Unit {\n  print(show8(fold(0x2a2a:U64, 0:U8, add8)))\n}", "")

RANGE_ITER = """\
module range_iter
import iter
data Range[a] { UpTo(a, a) }
concept Stepped[Self] {
  fn lessThan(x: Self, y: Self) -> Bool
  fn step(x: Self) -> Self
}
model steppedU64: Stepped[U64] {
  fn lessThan(x: U64, y: U64) -> Bool { lt64(x, y) }
  fn step(x: U64) -> U64 { add64(x, 1:U64) }
}
model rangeIter: Iterator[Range[a]] where Stepped[a] {
  type Element = a
  fn next(it: Range[a]) -> Option[(a, Range[a])] {
    match it {
      UpTo(lo, hi) => if lessThan(lo, hi) { Some((lo, UpTo(step(lo), hi))) } else { None }
    }
  }
}
fn main() -> Unit { print(show64(fold(UpTo(1:U64, 4:U64), 0:U64, add64))) }
"""


SUM = """\
module m
fn sum(n: U64) -> U64 {{ if eq64(n, 0:U64) {{ 0:U64 }} else {{ add64(n, sum(sub64(n, 1:U64))) }} }}
fn main() -> Unit {{ print(show64(sum({n}:U64))) }}
"""


def range_fold(n: int) -> str:
    """`RANGE_ITER` with a `main` that folds `add64` over `0..n`."""
    main = f"fn main() -> Unit {{ print(show64(fold(UpTo(0:U64, {n}:U64), 0:U64, add64))) }}"
    return RANGE_ITER.replace(
        "fn main() -> Unit { print(show64(fold(UpTo(1:U64, 4:U64), 0:U64, add64))) }", main
    )


def run(policy="use-site", fuel=10_000_000, **files):
    result = check_inline(policy, **files)
    assert result.ok, result.diagnostics
    core = elaborate(result.program)
    assert core_check(core) == []
    outcome = run_program(core, fuel)
    assert not isinstance(outcome, Diagnostic), outcome
    return outcome


KEEPING_LETS = """\
module k
concept Sh[Self] {
  fn sh(x: Self) -> String
  fn pick(x: Self, y: Self) -> Option[String]
}
model Sh[U64] {
  fn sh(x: U64) -> String { show64(x) }
  fn pick(x: U64, y: U64) -> Option[String] { Some(show64(add64(x, y))) }
}
fn twice[T](x: T) -> String where Sh[T] {
  let s = sh(x);
  let f = fn(y: String) => concat(s, y);
  let m = match pick(x, x) { Some(v) => f(v), None => s };
  let t = sh(x);
  let u = f(t);
  concat(concat(u, s), m)
}
fn adder(a: U64) -> (U64) -> U64 {
  let b = add64(a, 1:U64);
  let c = add64(b, 1:U64);
  let d = add64(c, 1:U64);
  fn(y: U64) => add64(d, y)
}
fn main() -> Unit {
  let a = 1:U64;
  let f = fn(y: U64) => add64(a, y);
  let b = add64(a, 10:U64);
  let g = fn(y: U64) => add64(b, f(y));
  let o = Some(b);
  let c = match o { Some(v) => add64(v, a), None => 0:U64 };
  let d = f(c);
  let e = if eq64(d, 0:U64) { 0:U64 } else { let z = add64(d, d); mul64(z, 2:U64) };
  let p1 = print(show64(g(d)));
  let p2 = print(twice(e));
  let h = adder(c);
  print(show64(h(c)))
}
"""


def test_let_chains_keep_the_frames_their_closures_took():
    """Each let of a chain stores its value into the function's one frame,
    at a slot that a later let or arm may reuse, and a lambda copies the
    values it reads when it is built, so each closure sees the lets before
    it, as they were, wherever it is called: after later lets, matches that
    bind, method calls and a let in an `if` branch have stored into the
    frame."""
    _, transcript = run(k=KEEPING_LETS)
    assert transcript == ["25", "52525252104", "27"]


def test_byte_fold_prints_84():
    value, transcript = run(iter=ITER)
    assert transcript == ["84"]


def test_next_projection_on_zero_is_none():
    result = check_inline(iter=ITER)
    core = elaborate(result.program)
    interp = Interp(core)
    dict_v = interp.global_value("dict$iter.bytes64")
    next_fn = dict_v["next"]
    out = interp.apply(next_fn, 0)
    assert isinstance(out, VCtor) and out.name == "None"
    out2 = interp.apply(next_fn, 0x2A2A)
    assert isinstance(out2, VCtor) and out2.name == "Some"


def test_bit_ops_against_arbitrary_precision_reference():
    result = check_inline(iter=ITER)
    core = elaborate(result.program)
    interp = Interp(core)
    rng = random.Random(20250815)
    corpus_constants = [0x2A2A, 0xFF, 8, 0, 1, MASK64]
    samples = corpus_constants + [rng.randrange(0, 2**64) for _ in range(1000)]
    for value in samples:
        other = rng.randrange(0, 2**64)
        shift = rng.randrange(0, 64)
        assert int(builtin(interp, "band", [value, other])) == (value & other) % 2**64
        assert int(builtin(interp, "shr", [value, shift])) == (value >> shift) % 2**64
        assert int(builtin(interp, "add64", [value, other])) == (value + other) % 2**64
        assert int(builtin(interp, "mul64", [value, other])) == (value * other) % 2**64
        assert int(builtin(interp, "sub64", [value, other])) == (value - other) % 2**64


def test_u8_arithmetic_wraps():
    result = check_inline(iter=ITER)
    interp = Interp(elaborate(result.program))
    assert int(builtin(interp, "add8", [200, 100])) == (200 + 100) % 256
    assert int(builtin(interp, "mul8", [16, 16])) == 0
    assert int(builtin(interp, "sub8", [0, 1])) == 255


def test_every_builtin_takes_one_or_two_operands():
    """A direct builtin application is compiled for one operand or for two
    (`Interp._builtin_app`); it has no code for more, since no builtin
    takes more and `core_check` fixes the number at every call."""
    assert {len(params) for _, params, _ in BUILTIN_SIGS.values()} == {1, 2}


def test_show_renders_unsigned_decimal():
    result = check_inline(iter=ITER)
    interp = Interp(elaborate(result.program))
    assert builtin(interp, "show64", [0x2A2A]) == "10794"
    assert builtin(interp, "show8", [42]) == "42"


def test_machine_integers_are_plain_ints_in_range():
    """U64 and U8 values are plain `int`s, reduced to their width by every
    literal and builtin that makes one, wrapping included, whether a
    builtin is applied directly, with literal or variable operands, or
    passed as a value. No width tag is kept: `core_check` rejects every mix
    of widths before a run (`test_corekit.py::test_core_check_rejects`, the
    row "builtin add64 cannot accept (U64, U8)", and the `add64`, `shl`,
    `eq8` and `extend64` rows of `test_builtin_failures_keep_their_messages`
    here)."""
    core = elaborate(check_inline(iter=ITER).program)
    interp = Interp(core)
    rows = [
        ("add64", "u64", [MASK64, 1], 0),
        ("sub64", "u64", [0, 1], MASK64),
        ("mul64", "u64", [MASK64, MASK64], 1),
        ("add8", "u8", [255, 1], 0),
        ("sub8", "u8", [0, 1], 255),
        ("mul8", "u8", [16, 16], 0),
        ("shl", "u64", [1, 64], 0),
        ("shl", "u64", [MASK64, 4], MASK64 - 15),
        ("band", "u64", [MASK64, 0xFF], 0xFF),
        ("bor", "u64", [MASK64, 1], MASK64),
        ("shr", "u64", [MASK64, 60], 0xF),
        ("trunc8", "u64", [0x1FF], 0xFF),
        ("extend64", "u8", [0xFF], 0xFF),
    ]
    for name, kind, args, want in rows:
        names = [f"x{i}" for i in range(len(args))]
        values = [
            eval_expr(CApp(CBuiltin(name), [CLit(kind, v) for v in args]), {}, core)[0],
            eval_expr(CApp(CBuiltin(name), [CVar(x) for x in names]), dict(zip(names, args)), core)[0],
            builtin(interp, name, args),
        ]
        assert [(type(v), v) for v in values] == [(int, want)] * 3, name
    for kind, mask in (("u64", MASK64), ("u8", MASK8)):
        for payload in (0, 1, mask):
            value = eval_expr(CLit(kind, payload), {}, core)[0]
            assert type(value) is int and value == payload
    assert builtin(interp, "show64", [MASK64]) == "18446744073709551615"
    assert builtin(interp, "show8", [255]) == "255"
    assert builtin(interp, "show64", [0]) == "0"


def test_determinism():
    t1 = run(iter=ITER)[1]
    t2 = run(iter=ITER)[1]
    assert t1 == t2 == ["84"]


def test_fuel_monotonicity():
    # find a fuel that works, then every larger budget gives the same answer
    result = check_inline(iter=ITER)
    core = elaborate(result.program)
    baseline = run_program(core, 100_000)
    assert not isinstance(baseline, Diagnostic)
    for fuel in (100_001, 200_000, 10_000_000):
        again = run_program(core, fuel)
        assert not isinstance(again, Diagnostic)
        assert again[1] == baseline[1]


def test_fuel_exhaustion():
    src = """\
module m
fn spin(x: U64) -> U64 { spin(add64(x, 1:U64)) }
fn main() -> Unit { let x = spin(0:U64); print("unreachable") }
"""
    result = check_inline(m=src)
    assert result.ok
    core = elaborate(result.program)
    outcome = run_program(core, 5000)
    assert isinstance(outcome, Diagnostic)
    assert outcome.code == "E-RT-FUEL"


def test_nonexhaustive_match_at_runtime():
    src = """\
module m
fn pick(o: Option[U64]) -> U64 { match o { Some(x) => x } }
fn main() -> Unit { let x = pick(None:Option[U64]); print("no") }
"""
    result = check_inline(m=src)
    assert result.ok, result.diagnostics
    core = elaborate(result.program)
    outcome = run_program(core)
    assert isinstance(outcome, Diagnostic)
    assert outcome.code == "E-RT-MATCH"


def test_polymorphic_option_iterator_prints_42():
    option_iter = """\
module option_iter
import iter
model onceOpt: Iterator[Option[a]] {
  type Element = a
  fn next(it: Option[a]) -> Option[(a, Option[a])] {
    match it { Some(x) => Some((x, None)), None => None }
  }
}
fn main() -> Unit { print(show64(fold(Some(42:U64), 0:U64, add64))) }
"""
    value, transcript = run(iter=ITER_LIB, option_iter=option_iter)
    assert transcript == ["42"]


def test_conditional_range_iterator_prints_6():
    value, transcript = run(iter=ITER_LIB, range_iter=RANGE_ITER)
    assert transcript == ["6"]


DEEPEN = """\
module deep
concept Show[Self] { fn show(x: Self) -> String }
model showU64: Show[U64] { fn show(x: U64) -> String { show64(x) } }
model showOption: Show[Option[a]] where Show[a] {
  fn show(o: Option[a]) -> String {
    match o { Some(x) => concat("Some(", concat(show(x), ")")), None => "None" }
  }
}
fn deepen[T](x: T, n: U64) -> String where Show[T] {
  if eq64(n, 0:U64) { show(x) } else { deepen(Some(x), sub64(n, 1:U64)) }
}
fn main() -> Unit { print(deepen(7:U64, 3:U64)) }
"""


def test_polymorphic_recursion_checks_and_runs():
    """The recursive call instantiates deepen's own T at Option[T]: the
    binding T ↦ Option[T] mentions the caller's rigid T."""
    value, transcript = run(deep=DEEPEN)
    assert transcript == ["Some(Some(Some(7)))"]
    goals = fun_records(check_inline(deep=DEEPEN).modules["deep"], "deepen")
    assert [render_constraint(g.constraint) for g in goals] == ["Show[T]", "Show[Option[T]]"]


@pytest.mark.parametrize(
    "fun, diagnostics",
    [
        ("fn f[T, U](x: T, y: U) -> U64 { f(y, x) }", []),
        (
            "fn f1[T](x: T) -> T { f1(5:U64) }",
            [("E-TYPE-MISMATCH", "type mismatch in this expression: expected T, found U64")],
        ),
        (
            "fn f2[T](x: T, y: T) -> U64 { f2(Some(x), x) }",
            [("E-TYPE-MISMATCH", "type mismatch in this expression: expected Option[T], found T")],
        ),
        (
            "fn f3[T](x: T) -> U64 { f3(None) }",
            [("E-CANNOT-INFER", "cannot infer type parameter(s) T of f3; add an annotation")],
        ),
    ],
)
def test_recursive_call_diagnostics(fun, diagnostics):
    result = check_inline(m=f"module m\n{fun}\n")
    assert [(d.code, d.message) for d in result.diagnostics] == diagnostics


def test_eval_expr_single_expression():
    result = check_inline(iter=ITER)
    core = elaborate(result.program)
    expr = CApp(CBuiltin("band"), [CLit("u64", 0x2A2A), CLit("u64", 0xFF)])
    value, transcript = eval_expr(expr, {}, core)
    assert int(value) == 0x2A
    assert transcript == []
    shifted, _ = eval_expr(
        CApp(CBuiltin("shr"), [CLit("u64", 0x2A2A), CLit("u64", 8)]), {}, core
    )
    assert int(shifted) == 0x2A


# ---------------------------------------------------------------- scoping


def u64(n: int) -> CLit:
    return CLit("u64", n)


SOME_2 = CCtor("std.Option", "Some", [U64], [u64(2)])
PAIR = CCtor("m.Pair", "Pair", [], [u64(1), u64(2)])


@pytest.mark.parametrize(
    "expr, value",
    [
        pytest.param(
            CApp(CLam([("x", U64)], CLet("x", u64(2), CVar("x"))), [u64(1)]),
            2,
            id="let-shadows-parameter",
        ),
        pytest.param(
            CLet("x", u64(1), CMatch(SOME_2, [("Some", ["x"], CVar("x"))])),
            2,
            id="binder-shadows-let",
        ),
        pytest.param(
            CLet("x", u64(1), CLet("y", u64(3), CApp(
                CLam([("x", U64)], CTuple(CVar("x"), CVar("y"))), [u64(2)]
            ))),
            (2, 3),
            id="parameter-shadows-captured",
        ),
        pytest.param(
            CApp(CLam([("x", U64), ("x", U64)], CVar("x")), [u64(1), u64(2)]),
            2,
            id="duplicate-parameters-last-wins",
        ),
        pytest.param(
            CMatch(PAIR, [("Pair", ["x", "x"], CVar("x"))]),
            2,
            id="duplicate-binders-last-wins",
        ),
        pytest.param(
            CLet("x", u64(1), CLet("_", u64(2), CVar("x"))),
            1,
            id="let-underscore-binds-nothing",
        ),
        pytest.param(
            CLet("p", CTuple(
                CMatch(SOME_2, [("Some", ["x"], CLam([("y", U64)], CTuple(CVar("x"), CVar("y"))))]),
                CMatch(CCtor("std.Option", "Some", [U64], [u64(5)]), [("Some", ["z"], CVar("z"))]),
            ), CApp(CApp(CBuiltin("fst"), [CVar("p")]), [CApp(CBuiltin("snd"), [CVar("p")])])),
            (2, 5),
            id="closure-of-an-arm-called-after-its-sibling-arm",
        ),
        pytest.param(
            CLet("a", CMatch(SOME_2, [("Some", ["x"], CApp(CBuiltin("add64"), [CVar("x"), u64(10)]))]),
                 CLet("b", u64(3), CTuple(CVar("a"), CVar("b")))),
            (12, 3),
            id="let-after-a-binding-arm",
        ),
        pytest.param(
            CLet("x", u64(1), CApp(CApp(CLam([("y", U64)], CLam([("z", U64)], CTuple(
                CVar("x"), CTuple(CVar("y"), CVar("z"))
            ))), [u64(2)]), [u64(3)])),
            (1, (2, 3)),
            id="lambda-reads-a-variable-bound-two-lambdas-out",
        ),
    ],
)
def test_inner_bindings_shadow_outer_ones(expr, value):
    core = elaborate(check_inline(iter=ITER).program)
    assert eval_expr(expr, {}, core)[0] == value


def test_eval_expr_reads_a_dict_environment():
    core = elaborate(check_inline(iter=ITER).program)
    env = {"a": 1, "b": 2}
    assert eval_expr(CTuple(CVar("a"), CVar("b")), env, core)[0] == (1, 2)
    body = CTuple(CVar("a"), CTuple(CVar("b"), CVar("z")))
    closure, _ = eval_expr(CLam([("z", U64)], body), env, core)
    value = Interp(core).apply(closure, 3)
    assert value == (1, (2, 3))


# ---------------------------------------------------------------- step accounting

# The steps of every `run --json` row of `test_cli_bytes` that exits 0: the
# row's words after `run --json`, and the fewest steps that finish it.
RUN_STEPS = [
    ("--policy use-site iter_fold.sl iter_lib.sl", 99),
    ("--policy use-site iter_lib.sl option_iter.sl", 51),
    ("--policy use-site iter_lib.sl range_iter.sl", 175),
    ("--policy use-site option_show_ok.sl show_lib.sl", 25),
    ("--policy use-site convert_pair.sl", 28),
    ("--policy def-site-disjoint convert_pair.sl", 28),
    ("--policy scoped convert_pair.sl", 28),
    ("--policy use-site --prioritize-specific convert_pair.sl", 28),
    ("--policy use-site --incoherent-ok convert_pair.sl", 28),
    ("--policy scoped diamond_base.sl diamond_left.sl diamond_point.sl diamond_right.sl diamond_top.sl", 23),
    ("--policy use-site elements_equal.sl eq_concepts.sl iter_lib.sl", 209),
    ("--policy def-site-strict elements_equal.sl eq_concepts.sl iter_lib.sl", 209),
    ("--policy def-site-disjoint elements_equal.sl eq_concepts.sl iter_lib.sl", 209),
    ("--policy scoped elements_equal.sl eq_concepts.sl iter_lib.sl", 209),
    ("--policy use-site --prioritize-specific elements_equal.sl eq_concepts.sl iter_lib.sl", 209),
    ("--policy use-site --incoherent-ok elements_equal.sl eq_concepts.sl iter_lib.sl", 209),
    ("--policy def-site-strict iter_fold.sl iter_lib.sl", 99),
    ("--policy def-site-disjoint iter_fold.sl iter_lib.sl", 99),
    ("--policy scoped iter_fold.sl iter_lib.sl", 99),
    ("--policy use-site --prioritize-specific iter_fold.sl iter_lib.sl", 99),
    ("--policy use-site --incoherent-ok iter_fold.sl iter_lib.sl", 99),
    ("--policy def-site-strict iter_lib.sl option_iter.sl", 51),
    ("--policy scoped iter_lib.sl option_iter.sl", 51),
    ("--policy use-site --prioritize-specific iter_lib.sl option_iter.sl", 51),
    ("--policy use-site --incoherent-ok iter_lib.sl option_iter.sl", 51),
    ("--policy use-site --prioritize-specific option_show.sl show_lib.sl", 40),
    ("--policy use-site --incoherent-ok option_show.sl show_lib.sl", 49),
    ("--policy scoped option_show_ok.sl show_lib.sl", 25),
    ("--policy use-site --prioritize-specific option_show_ok.sl show_lib.sl", 25),
    ("--policy use-site --incoherent-ok option_show_ok.sl show_lib.sl", 25),
    ("--policy def-site-strict iter_lib.sl range_iter.sl", 175),
    ("--policy def-site-disjoint iter_lib.sl range_iter.sl", 175),
    ("--policy scoped iter_lib.sl range_iter.sl", 175),
    ("--policy use-site --prioritize-specific iter_lib.sl range_iter.sl", 175),
    ("--policy use-site --incoherent-ok iter_lib.sl range_iter.sl", 175),
    ("--policy use-site --prioritize-specific iter_lib.sl string_conv.sl string_conv_overlap.sl", 12),
    ("--policy use-site --incoherent-ok iter_lib.sl string_conv.sl string_conv_overlap.sl", 142),
    ("--policy use-site --prioritize-specific iter_lib.sl string_conv.sl unstable_log.sl", 149),
    ("--policy use-site --incoherent-ok iter_lib.sl string_conv.sl unstable_log.sl", 149),
]


@pytest.mark.parametrize("modules, steps", [(tuple(row.split()), n) for row, n in RUN_STEPS])
def test_fuel_counts_one_step_per_core_node(modules, steps, corpus_dir, monkeypatch, capsys):
    monkeypatch.chdir(corpus_dir)
    assert cli.main(["run", "--json", "--fuel", str(steps), *modules]) == 0
    capsys.readouterr()
    assert cli.main(["run", "--json", "--fuel", str(steps - 1), *modules]) == 1
    err = capsys.readouterr().err  # text warnings, if any, come first
    [diag] = json.loads(err[err.index("[\n") :])
    assert (diag["code"], diag["message"]) == ("E-RT-FUEL", "evaluation step budget exceeded")


def test_fuel_counts_the_steps_of_a_long_fold():
    core = elaborate(check_inline(iter=ITER_LIB, range_iter=range_fold(7000)).program)
    assert run_program(core, 308_043)[1] == ["24496500"]
    short = run_program(core, 308_042)
    assert (short.code, short.message) == ("E-RT-FUEL", "evaluation step budget exceeded")


def test_python_calls_per_fold_element():
    """The closures a fold runs make few Python calls per element: an
    application enters its function in its own frame and leaves a tail call
    as a list display, variables are read in place, builtins, applications,
    constructors and tuples take their operands positionally, constructors
    are built with no Python `__init__`, machine integers are plain `int`s,
    and superoperators fuse a dictionary method call with the match or `if`
    that takes its value, a call with its global callee and with its `fst`
    and `snd` operands, a constructor with its pair operand, and `add64`
    with its mask, so a step that costs one more call shows here. 11 calls
    when set; 18 while a method call, a global callee, `fst`, `snd` and a
    pair were nodes of their own and `add64` made a `VU64`; 30 while
    `Interp.apply` entered every function and tail calls, constructors and
    pairs were built by Python functions."""

    def calls(n: int) -> int:
        core = elaborate(check_inline(iter=ITER_LIB, range_iter=range_fold(n)).program)
        count = 0

        def profile(frame, event, arg):
            nonlocal count
            count += event == "call"

        enabled = gc.isenabled()
        gc.collect()  # so that no collection of dead terms lands inside the count
        gc.disable()
        sys.setprofile(profile)
        try:
            run_program(core)
        finally:
            sys.setprofile(None)
            if enabled:
                gc.enable()
        return count

    assert (calls(2000) - calls(1000)) / 1000 <= 11


def test_opcodes_per_fold_element():
    """A fold element runs few bytecodes: variables read fixed slots of
    tuple frames, so entering a closure or a match arm copies no
    environment, and steps are spent where a run may fail or enters a
    function, ten times per element, not at every node. 611 when set, with
    the superoperators above; 653 without them; 698 while every node spent
    its own step and `Interp.apply` entered every function."""

    def opcodes(n: int) -> int:
        core = elaborate(check_inline(iter=ITER_LIB, range_iter=range_fold(n)).program)
        count = 0

        def trace(frame, event, arg):
            nonlocal count
            frame.f_trace_opcodes = True
            count += event == "opcode"
            return trace

        enabled = gc.isenabled()
        gc.collect()  # so that no collection of dead terms lands inside the count
        gc.disable()
        sys.settrace(trace)
        try:
            run_program(core)
        finally:
            sys.settrace(None)
            if enabled:
                gc.enable()
        return count

    assert (opcodes(2000) - opcodes(1000)) / 1000 <= 611


PICK = """\
module m
fn pick(o: Option[U64]) -> U64 { match o { Some(x) => x } }
fn g(o: Option[U64], y: U64) -> U64 { add64(pick(o), y) }
fn main() -> Unit { print(show64(g(None:Option[U64], 1:U64))) }
"""


@pytest.mark.parametrize(
    "source, fuel, code, message",
    [
        (PICK, 17, "E-RT-FUEL", "evaluation step budget exceeded"),
        (PICK, 18, "E-RT-MATCH", "non-exhaustive match: no arm for None"),
        (SUM.format(n=1_000_000), 139_994, "E-RT-FUEL", "evaluation step budget exceeded"),
        (SUM.format(n=1_000_000), 139_995, "E-RT-FUEL", DEPTH_EXCEEDED),
    ],
)
def test_first_failure_at_the_fuel_boundary(source, fuel, code, message):
    """One step less than the run needs to reach a failure reports the
    budget instead, as a check after every step would."""
    outcome = run_program(elaborate(check_inline(m=source).program), fuel)
    assert (outcome.code, outcome.message) == (code, message)


# `pick` fails in an operand of a pair, after a call in the pair's first
# operand has returned and while steps of the `print` around it are owed.
PICK_IN_A_PAIR = """\
module m
fn pick(o: Option[U64]) -> U64 { match o { Some(x) => x } }
fn g(o: Option[U64], y: U64) -> (U64, U64) { (add64(pick(o), y), pick(Some(y))) }
fn main() -> Unit { print(show64(fst(g(Some(1:U64), 2:U64)))); print(show64(snd(g(None, 3:U64)))) }
"""


# `bump(None)` takes the wildcard arm, whose body fails in `pick`.
WILDCARD_ARM = """\
module m
fn pick(o: Option[U64]) -> U64 { match o { Some(x) => x } }
fn bump(o: Option[U64]) -> U64 { match o { Some(x) => add64(x, 1:U64), _ => add64(pick(o), 2:U64) } }
fn main() -> Unit { print(show64(bump(Some(1:U64)))); print(show64(bump(None))) }
"""


# `g` calls `f`, a closure that took a `let` and an arm's binder, on the
# value of `pick`, which fails on `None`.
CAPTURING_CLOSURES = """\
module m
fn pick(o: Option[U64]) -> U64 { match o { Some(x) => x } }
fn main() -> Unit {
  let a = 1:U64;
  let f = match Some(2:U64) { Some(b) => fn(y: U64) => add64(add64(a, b), y) };
  let g = fn(o: Option[U64]) => f(pick(o));
  print(show64(g(Some(3:U64))));
  print(show64(g(None)))
}
"""


@pytest.mark.parametrize(
    "source, need",
    [(PICK, 18), (PICK_IN_A_PAIR, 50), (WILDCARD_ARM, 34), (CAPTURING_CLOSURES, 49)],
)
def test_every_budget_meets_the_failure_a_compare_at_every_node_would(source, need):
    """Steps are spent in batches, where a run may fail or enters a
    function, yet every budget below what the run needs to reach its match
    failure reports the budget, and every budget from it on the failure."""
    core = elaborate(check_inline(m=source).program)
    for fuel in range(need + 3):
        outcome = run_program(core, fuel)
        expected = "evaluation step budget exceeded" if fuel < need else (
            "non-exhaustive match: no arm for None"
        )
        assert outcome.message == expected, fuel


# ---------------------------------------------------------------- tail calls and depth


def test_long_range_fold_runs_in_constant_stack():
    n = 30_000
    _, transcript = run(iter=ITER_LIB, range_iter=range_fold(n))
    assert transcript == [str(n * (n - 1) // 2)]


def test_tail_recursive_spin_stops_on_steps_not_depth():
    src = """\
module m
fn spin(x: U64) -> U64 { spin(add64(x, 1:U64)) }
fn main() -> Unit { let x = spin(0:U64); print("unreachable") }
"""
    core = elaborate(check_inline(m=src).program)
    outcome = run_program(core, 5000)
    assert isinstance(outcome, Diagnostic) and outcome.code == "E-RT-FUEL"
    assert outcome.message == "evaluation step budget exceeded"


def test_non_tail_recursion_within_the_depth_guard():
    assert run(m=SUM.format(n=1000))[1] == ["500500"]


def test_non_tail_recursion_past_the_depth_guard():
    core = elaborate(check_inline(m=SUM.format(n=1_000_000)).program)
    outcome = run_program(core)
    assert isinstance(outcome, Diagnostic) and outcome.code == "E-RT-FUEL"
    assert "depth" in outcome.message and "step" not in outcome.message
    # The explicit guard trips, not Python's recursion limit, long before
    # the step budget is spent, and unwinding restores the depth count.
    interp = Interp(core)
    with pytest.raises(RuntimeFailure) as failure:
        interp.apply(interp.global_value(core.entry))
    assert failure.value.message == outcome.message
    assert DEFAULT_FUEL - interp.fuel < DEFAULT_FUEL // 10
    assert interp.depth == 0


def test_python_frames_per_nested_call():
    """Each nested non-tail SL call deepens the Python stack by a few frames
    only, so the depth guard, not Python's recursion limit, bounds it: in
    `sum`, the `if` of the body, the `add64` application and the call node,
    which enters `sum` itself (3 when set and with the superoperators, 4
    while `Interp.apply` did)."""

    def deepest(n: int) -> int:
        core = elaborate(check_inline(m=SUM.format(n=n)).program)
        depth = top = 0

        def profile(frame, event, arg):
            nonlocal depth, top
            if event == "call":
                depth += 1
                top = max(top, depth)
            elif event == "return":
                depth -= 1

        sys.setprofile(profile)
        try:
            assert run_program(core)[1] == [str(n * (n + 1) // 2)]
        finally:
            sys.setprofile(None)
        return top

    assert (deepest(200) - deepest(100)) / 100 <= 3


def test_branches_never_taken_are_never_run():
    core = elaborate(check_inline(iter=ITER).program)
    none = CCtor("std.Option", "None", [U64], [])
    for broken in (
        CMatch(none, [("Some", ["x"], CVar("x"))]),
        CProj(CLit("u64", 1), "missing"),
        CVar("unbound"),
        CApp(CLit("u64", 1), []),
    ):
        value, _ = eval_expr(CIf(CLit("bool", True), CLit("u64", 7), broken), {}, core)
        assert value == 7
        value, _ = eval_expr(
            CMatch(none, [("Some", ["x"], broken), ("None", [], CLit("u64", 8))]), {}, core
        )
        assert value == 8


# ---------------------------------------------------------------- runtime errors


GATE = """\
module m
data Pair { Pair(U64, U64) }
concept Show[Self] { fn show(x: Self) -> String }
concept Add[Self] { fn f(x: Self, y: Self) -> Self }
model showU64: Show[U64] { fn show(x: U64) -> String { show64(x) } }
model addU64: Add[U64] { fn f(x: U64, y: U64) -> U64 { add64(x, y) } }
fn h(x: U64) -> U64 { x }
fn main() -> Unit { print(show64(h(1:U64))) }
"""
ILLTYPED = "core program does not type check (elaborator bug): "
SHOW = App(Con("Dict$m.Show", 1, "m"), (U64,))
ADDS = App(Con("Dict$m.Add", 1, "m"), (U64,))
ADD = fn_type([U64, U64], U64)
CONCAT = fn_type([STRING, STRING], STRING)
SOME_1 = CCtor("std.Option", "Some", [U64], [u64(1)])
SOME_1_2 = CCtor("std.Option", "Some", [U64], [u64(1), u64(2)])
PAIR_1_2 = CTuple(u64(1), u64(2))


def first_failure(expr, **scope) -> tuple[str, str]:
    """The first failure `sl run` meets in `expr`, whose free variables have
    the types in `scope`: the refusal of `core_check`, the gate in front of
    the evaluator, or the evaluator's own failure for a closed term that the
    gate lets through."""
    core = elaborate(check_inline(m=GATE).program)
    core.defs["m.h"].expr = CLam(
        [("x", U64)], CLet("_", CLam(list(scope.items()), expr), CVar("x"))
    )
    for diag in core_check(core):
        return diag.code, diag.message.removeprefix(ILLTYPED)
    with pytest.raises(RuntimeFailure) as failure:
        eval_expr(expr, {}, core)
    return failure.value.code, failure.value.message


def refused(message: str) -> tuple[str, str]:
    return "E-CORE-ILLTYPED", message


# The evaluator once refused every term of the tables below itself; the row
# ids are the ones the rows had then, with the evaluator's message, fuel and
# code. It now trusts `core_check`, which refuses each term before a step is
# spent, so the fuel at which these terms failed is behaviour removed.


@pytest.mark.parametrize(
    "expr, failure",
    [
        pytest.param(
            CVar("ghost"), refused("unbound core variable ghost"),
            id="expr0-unbound variable ghost",
        ),
        pytest.param(
            CProj(CLit("u64", 1), "next"),
            refused("projection .next from non-dictionary type U64"),
            id="expr1-bad projection .next",
        ),
        pytest.param(
            CMatch(CLit("u64", 1), [(None, [], CLit("u64", 0))]),
            refused("match on non-data type U64"),
            id="expr2-match on a non-constructor value",
        ),
        # The one runtime failure that core `core_check` accepts can reach.
        pytest.param(
            CMatch(CCtor("std.Option", "None", [U64], []), [("Some", ["x"], CVar("x"))]),
            ("E-RT-MATCH", "non-exhaustive match: no arm for None"),
            id="expr3-non-exhaustive match: no arm for None",
        ),
        pytest.param(
            CIf(CLit("u64", 1), CLit("u64", 2), CLit("u64", 3)),
            refused("if condition not Bool"),
            id="expr4-if condition is not a boolean",
        ),
        pytest.param(
            CApp(CLam([("x", U64)], CVar("x")), [CLit("u64", 1), CLit("u64", 2)]),
            refused("arity mismatch: 1 vs 2"),
            id="expr5-closure expects 1 arguments, got 2",
        ),
        pytest.param(
            CApp(CLit("u64", 1), []), refused("application of non-function type U64"),
            id="expr6-application of a non-function value",
        ),
        # A pair is no function value, though Python's tuples are what it
        # is made of; the last rows tell apart more kinds of value that share
        # a Python type.
        pytest.param(
            CApp(PAIR_1_2, []), refused("application of non-function type (U64, U64)"),
            id="expr7-application of a non-function value",
        ),
        pytest.param(
            CApp(CBuiltin("add64"), [CVar("ghost"), CLit("u64", 1)]),
            refused("unbound core variable ghost"),
            id="expr8-unbound variable ghost",
        ),
        pytest.param(
            CCtor("std.Option", "Some", [U64], [CVar("ghost")]),
            refused("unbound core variable ghost"),
            id="expr9-unbound variable ghost",
        ),
        pytest.param(
            CTuple(CVar("ghost"), CLit("u64", 1)), refused("unbound core variable ghost"),
            id="expr10-unbound variable ghost",
        ),
        # A builtin that a variable holds, applied at another arity.
        pytest.param(
            CApp(CLam([("f", ADD)], CApp(CVar("f"), [u64(1)])), [CBuiltin("add64")]),
            refused("arity mismatch: 2 vs 1"),
            id="expr11-add64 expects 2 arguments, got 1",
        ),
        pytest.param(
            CApp(CLam([("f", CONCAT)], CApp(CVar("f"), [])), [CBuiltin("concat")]),
            refused("arity mismatch: 2 vs 0"),
            id="expr12-concat expects 2 arguments, got 0",
        ),
        pytest.param(
            CLet("_", CLit("u64", 1), CVar("_")), refused("unbound core variable _"),
            id="expr13-unbound variable _",
        ),
        pytest.param(
            CMatch(PAIR, [("Pair", ["x", "_"], CVar("_"))]), refused("unbound core variable _"),
            id="expr14-unbound variable _",
        ),
        # A binding arm that meets a value with another number of fields: a
        # well-typed Some has one field, so only an ill-formed one does.
        pytest.param(
            CMatch(SOME_1, [("Some", ["x", "y"], CVar("x"))]), refused("Some: pattern arity"),
            id="expr15-pattern arity: Some has 1 fields, the arm binds 2",
        ),
        pytest.param(
            CMatch(SOME_1, [("Some", ["x", "y"], CVar("y"))]), refused("Some: pattern arity"),
            id="expr16-pattern arity: Some has 1 fields, the arm binds 2",
        ),
        pytest.param(
            CLet("z", u64(9), CMatch(SOME_1_2, [("Some", ["x"], CTuple(CVar("x"), CVar("z")))])),
            refused("Some: wrong arity"),
            id="expr17-pattern arity: Some has 2 fields, the arm binds 1",
        ),
        pytest.param(
            CMatch(SOME_1_2, [("Some", ["x"], CLet("w", u64(5), CVar("w")))]),
            refused("Some: wrong arity"),
            id="expr18-pattern arity: Some has 2 fields, the arm binds 1",
        ),
        # Python's own types stand for several kinds of value, and each kind
        # is told apart: a pair is no dictionary or constructor value, nor a
        # constructor value a pair; Unit and a U8 0 are no Bool, and a Bool
        # is no machine integer, however Python compares them.
        pytest.param(
            CProj(PAIR_1_2, "next"),
            refused("projection .next from non-dictionary type (U64, U64)"),
            id="expr19-bad projection .next",
        ),
        pytest.param(
            CMatch(PAIR_1_2, [(None, [], CLit("u64", 0))]),
            refused("match on non-data type (U64, U64)"),
            id="expr20-match on a non-constructor value",
        ),
        pytest.param(
            CApp(CBuiltin("fst"), [SOME_1]), refused("builtin fst cannot accept (Option[U64])"),
            id="expr21-fst: expected a pair",
        ),
        pytest.param(
            CIf(CLit("unit", ()), CLit("u64", 2), CLit("u64", 3)),
            refused("if condition not Bool"),
            id="expr22-if condition is not a boolean",
        ),
        pytest.param(
            CIf(CLit("u8", 0), CLit("u64", 2), CLit("u64", 3)), refused("if condition not Bool"),
            id="expr23-if condition is not a boolean",
        ),
        pytest.param(
            CApp(CBuiltin("add64"), [CLit("bool", True), CLit("u64", 1)]),
            refused("builtin add64 cannot accept (Bool, U64)"),
            id="expr24-add64: expected a U64",
        ),
    ],
)
def test_runtime_match_failures_keep_their_messages(expr, failure):
    assert first_failure(expr) == failure


@pytest.mark.parametrize(
    "args",
    [
        pytest.param([CVar("ghost"), CVar("y")], id="args0-2-E-RT-FUEL"),
        pytest.param([CVar("ghost"), CVar("y")], id="args1-3-E-RT-MATCH"),
        pytest.param([CVar("y"), CVar("ghost")], id="args2-3-E-RT-FUEL"),
        pytest.param([CVar("y"), CVar("ghost")], id="args3-4-E-RT-MATCH"),
    ],
)
def test_unbound_leading_variable_at_the_fuel_boundary(args):
    """An unbound variable, leading its call or not, is refused by the
    gate, so no step budget reaches it."""
    expr = CApp(CBuiltin("add64"), args)
    assert first_failure(expr, y=U64) == refused("unbound core variable ghost")


NOT_ADD = refused("projection .f from non-dictionary type U64")
NO_FIELD = refused("dictionary m.Show has no field f")
GHOST = refused("unbound core variable ghost")
NOT_U64 = refused("argument expects U64, got Dict$m.Add[U64]")
NOT_FN = refused("application of non-function type U64")


@pytest.mark.parametrize(
    "record, args, failure",
    [
        pytest.param(U64, [CVar("y"), CVar("y")], NOT_ADD, id="9-args0-3-bad projection .f"),
        pytest.param(U64, [CVar("y"), u64(1)], NOT_ADD, id="9-args1-3-bad projection .f"),
        pytest.param(U64, [u64(1), CVar("y")], NOT_ADD, id="9-args2-3-bad projection .f"),
        pytest.param(
            U64, [CApp(CVar("g"), [CVar("y"), CVar("y")]), CVar("y")], NOT_ADD,
            id="9-args3-3-bad projection .f",
        ),
        pytest.param(
            SHOW, [CVar("y"), CVar("y")], NO_FIELD, id="record4-args4-3-bad projection .f"
        ),
        pytest.param(SHOW, [CVar("y"), u64(1)], NO_FIELD, id="record5-args5-3-bad projection .f"),
        pytest.param(SHOW, [u64(1), CVar("y")], NO_FIELD, id="record6-args6-3-bad projection .f"),
        pytest.param(
            SHOW, [CApp(CVar("g"), [CVar("y"), CVar("y")]), CVar("y")], NO_FIELD,
            id="record7-args7-3-bad projection .f",
        ),
        pytest.param(
            ADDS, [CVar("y"), CVar("ghost")], GHOST, id="record8-args8-5-unbound variable ghost"
        ),
        pytest.param(
            ADDS, [u64(1), CVar("ghost")], GHOST, id="record9-args9-5-unbound variable ghost"
        ),
        pytest.param(
            ADDS, [CVar("y")], refused("arity mismatch: 2 vs 1"),
            id="record10-args10-4-add64 expects 2 arguments, got 1",
        ),
        pytest.param(
            ADDS, [u64(1), u64(2), CVar("y")], refused("arity mismatch: 2 vs 3"),
            id="record11-args11-6-add64 expects 2 arguments, got 3",
        ),
        pytest.param(
            ADDS, [CVar("y"), CVar("d")], NOT_U64, id="record12-args12-5-add64: expected a U64"
        ),
        pytest.param(
            ADDS, [CApp(CVar("g"), [CVar("y"), CVar("d")]), CVar("y")], NOT_U64,
            id="record13-args13-7-add64: expected a U64",
        ),
        pytest.param(
            ADDS, [CVar("y"), CApp(CVar("y"), [])], NOT_FN,
            id="record14-args14-6-application of a non-function value",
        ),
        pytest.param(
            ADDS, [u64(1), CApp(CVar("y"), [])], NOT_FN,
            id="record15-args15-6-application of a non-function value",
        ),
    ],
)
def test_method_call_failures_at_the_fuel_boundary(record, args, failure):
    """A call of a field of a dictionary variable `d`, which the evaluator
    runs as one node, is refused by the gate if `d` is no dictionary, lacks
    the field, or the call or its arguments are ill-typed."""
    expr = CApp(CProj(CVar("d"), "f"), args)
    assert first_failure(expr, d=record, y=U64, g=ADD) == failure


ADD64 = BUILTINS["add64"]
HAS_FIELD = {"f": ADD64}


def method_env(record) -> dict:
    """An environment with a record `d`, a U64 `y` and the builtin `g`."""
    return {"d": record, "y": 1, "g": ADD64}


@pytest.mark.parametrize(
    "args, steps, value",
    [
        ([CVar("y"), CVar("y")], 5, 2),
        ([CVar("y"), u64(2)], 5, 3),
        ([u64(2), CVar("y")], 5, 3),
        ([CApp(CVar("g"), [CVar("y"), CVar("y")]), CVar("y")], 8, 3),
    ],
)
@pytest.mark.parametrize("tail", [False, True])
def test_method_calls_at_the_fuel_boundary(args, steps, value, tail):
    """A method call that succeeds, in tail position or not, needs its three
    steps and one per node of its arguments; one step fewer reports the
    budget. In tail position a closure entered with `d` adds three."""
    core = elaborate(check_inline(iter=ITER).program)
    expr = CApp(CProj(CVar("d"), "f"), args)
    if tail:
        expr, steps = CApp(CLam([("d", U64)], expr), [CVar("d")]), steps + 3
    assert eval_expr(expr, method_env(HAS_FIELD), core, steps)[0] == value
    with pytest.raises(RuntimeFailure) as failure:
        eval_expr(expr, method_env(HAS_FIELD), core, steps - 1)
    assert failure.value.message == "evaluation step budget exceeded"


# A method call as a match scrutinee or an `if` condition, and a call of a
# global not yet forced, each run as one node, in tail position (a body)
# and not (bound by a `let`).
FUSED = """\
module m
concept C[Self] {
  fn pick(x: Self) -> Option[U64]
  fn ok(x: Self) -> Bool
}
model c: C[U64] {
  fn pick(x: U64) -> Option[U64] { if eq64(x, 0:U64) { None } else { Some(x) } }
  fn ok(x: U64) -> Bool { lt64(x, 5:U64) }
}
fn h(x: U64) -> U64 { add64(x, 1:U64) }
"""
NO_ARM = ("E-RT-MATCH", "non-exhaustive match: no arm for None")


GENERIC = "fn f[T](x: T) -> U64 where C[T]"
PLAIN = "fn f(x: U64) -> U64"


@pytest.mark.parametrize(
    "f, body, x, need, outcome",
    [
        pytest.param(GENERIC, "match pick(x) { Some(y) => y, None => 0:U64 }", 3, 27, ["3"],
                     id="match-tail"),
        pytest.param(GENERIC, "let v = match pick(x) { Some(y) => y, None => 0:U64 }; v", 3, 29,
                     ["3"], id="match-non-tail"),
        pytest.param(GENERIC, "if ok(x) { 1:U64 } else { 2:U64 }", 3, 24, ["1"], id="if-tail"),
        pytest.param(GENERIC, "let v = if ok(x) { 1:U64 } else { 2:U64 }; v", 3, 26, ["1"],
                     id="if-non-tail"),
        pytest.param(PLAIN, "h(x)", 3, 17, ["4"], id="global-tail"),
        pytest.param(PLAIN, "add64(h(x), 1:U64)", 3, 20, ["5"], id="global-non-tail"),
        pytest.param(GENERIC, "match pick(x) { Some(y) => y }", 0, 25, NO_ARM, id="no-arm-tail"),
        pytest.param(GENERIC, "let v = match pick(x) { Some(y) => y }; v", 0, 26, NO_ARM,
                     id="no-arm-non-tail"),
    ],
)
def test_fused_nodes_at_the_fuel_boundary(f, body, x, need, outcome):
    """Each superoperator spends the steps of the nodes it fuses where they
    would spend them: a run needs the steps it needed before the fusion
    and reaches the same outcome, a fused match with no arm for its value
    the same E-RT-MATCH, and one step fewer reports the budget. (`h` is
    forced on its first call, by `f`.)"""
    source = FUSED + f"{f} {{ {body} }}\nfn main() -> Unit {{ print(show64(f({x}:U64))) }}\n"
    core = elaborate(check_inline(m=source).program)
    ran = run_program(core, need)
    assert (ran[1] if isinstance(ran, tuple) else [ran.code, ran.message]) == list(outcome)
    short = run_program(core, need - 1)
    assert (short.code, short.message) == ("E-RT-FUEL", "evaluation step budget exceeded")


@pytest.mark.parametrize(
    "name, args, message",
    [
        pytest.param(
            "add64", [u64(1), CLit("u8", 1)], "(U64, U8)", id="add64-args0-add64: expected a U64"
        ),
        pytest.param(
            "shl", [CLit("u8", 1), u64(1)], "(U8, U64)", id="shl-args1-shl: expected a U64"
        ),
        pytest.param(
            "eq8", [u64(1), CLit("u8", 1)], "(U64, U8)", id="eq8-args2-eq8: expected a U8"
        ),
        pytest.param("extend64", [u64(1)], "(U64)", id="extend64-args3-extend64: expected a U8"),
        pytest.param(
            "show64", [CLit("string", "1")], "(String)", id="show64-args4-show64: expected a U64"
        ),
        pytest.param("showbool", [u64(1)], "(U64)", id="showbool-args5-showbool: expected a Bool"),
        pytest.param("showf64", [u64(1)], "(U64)", id="showf64-args6-showf64: expected an F64"),
        pytest.param("not", [CLit("u8", 1)], "(U8)", id="not-args7-not: expected a Bool"),
        pytest.param(
            "concat", [CLit("string", "a"), u64(1)], "(String, U64)",
            id="concat-args8-concat: expected strings",
        ),
        pytest.param("print", [u64(1)], "(U64)", id="print-args9-print: expected a String"),
        pytest.param("fst", [u64(1)], "(U64)", id="fst-args10-fst: expected a pair"),
        pytest.param("snd", [CLit("bool", True)], "(Bool)", id="snd-args11-snd: expected a pair"),
    ],
)
def test_builtin_failures_keep_their_messages(name, args, message):
    """One operand of the wrong kind per kind of builtin, refused by the
    gate; the ids keep the messages the evaluator gave before it trusted
    `core_check`."""
    expr = CApp(CBuiltin(name), args)
    assert first_failure(expr) == refused(f"builtin {name} cannot accept {message}")


def test_builtin_table_values():
    interp = Interp(elaborate(check_inline(iter=ITER).program))
    assert builtin(interp, "shl", [1, 64]) == 0
    assert builtin(interp, "shl", [MASK64, 4]) == MASK64 - 15
    assert builtin(interp, "lt8", [1, 2]) is True
    assert builtin(interp, "trunc8", [0x1FF]) == 0xFF
    assert builtin(interp, "showf64", [VF64("1.5")]) == "1.5"
    assert builtin(interp, "snd", [(1, 2)]) == 2
    assert builtin(interp, "concat", ["a", "b"]) == "ab"
    assert builtin(interp, "print", ["hi"]) is None
    assert interp.transcript == ["hi"]
