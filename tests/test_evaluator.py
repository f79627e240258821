"""Evaluation: fixed-width semantics, transcripts, fuel."""

import random

import pytest
from conftest import check_inline, check_sources, corpus_sources

from slc.coherence import CoherencePolicy
from slc.corekit import (
    CApp,
    CBuiltin,
    CCtor,
    CIf,
    CLam,
    CLit,
    CMatch,
    CProj,
    CVar,
    core_check,
    elaborate,
)
from slc.diagnostics import Diagnostic
from slc.evaluator import (
    DEFAULT_FUEL,
    MASK64,
    Interp,
    RuntimeFailure,
    VBool,
    VCtor,
    VF64,
    VStr,
    VTuple,
    VU8,
    VUnit,
    VU64,
    eval_expr,
    run_program,
)
from slc.types import U64

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


def run(policy="use-site", fuel=10_000_000, **files):
    result = check_inline(policy, **files)
    assert result.ok, result.diagnostics
    core = elaborate(result.program)
    assert core_check(core) == []
    outcome = run_program(core, fuel)
    assert not isinstance(outcome, Diagnostic), outcome
    return outcome


def test_byte_fold_prints_84():
    value, transcript = run(iter=ITER)
    assert transcript == ["84"]


def test_next_projection_on_zero_is_none():
    result = check_inline(iter=ITER)
    core = elaborate(result.program)
    interp = Interp(core)
    dict_v = interp.global_value("dict$iter.bytes64")
    next_fn = dict_v.fields["next"]
    out = interp.apply(next_fn, [VU64(0)])
    assert isinstance(out, VCtor) and out.name == "None"
    out2 = interp.apply(next_fn, [VU64(0x2A2A)])
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
        assert interp.builtin("band", [VU64(value), VU64(other)]).value == (value & other) % 2**64
        assert interp.builtin("shr", [VU64(value), VU64(shift)]).value == (value >> shift) % 2**64
        assert interp.builtin("add64", [VU64(value), VU64(other)]).value == (value + other) % 2**64
        assert interp.builtin("mul64", [VU64(value), VU64(other)]).value == (value * other) % 2**64
        assert interp.builtin("sub64", [VU64(value), VU64(other)]).value == (value - other) % 2**64


def test_u8_arithmetic_wraps():
    result = check_inline(iter=ITER)
    interp = Interp(elaborate(result.program))
    assert interp.builtin("add8", [VU8(200), VU8(100)]).value == (200 + 100) % 256
    assert interp.builtin("mul8", [VU8(16), VU8(16)]).value == 0
    assert interp.builtin("sub8", [VU8(0), VU8(1)]).value == 255


def test_show_renders_unsigned_decimal():
    result = check_inline(iter=ITER)
    interp = Interp(elaborate(result.program))
    assert interp.builtin("show64", [VU64(0x2A2A)]).value == "10794"
    assert interp.builtin("show8", [VU8(42)]).value == "42"


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


def test_eval_expr_single_expression():
    from slc.corekit import CApp, CBuiltin, CLit
    from slc.evaluator import eval_expr

    result = check_inline(iter=ITER)
    core = elaborate(result.program)
    expr = CApp(CBuiltin("band"), [CLit("u64", 0x2A2A), CLit("u64", 0xFF)])
    value, transcript = eval_expr(expr, {}, core)
    assert value.value == 0x2A
    assert transcript == []
    shifted, _ = eval_expr(
        CApp(CBuiltin("shr"), [CLit("u64", 0x2A2A), CLit("u64", 8)]), {}, core
    )
    assert shifted.value == 0x2A


# ---------------------------------------------------------------- step accounting


@pytest.mark.parametrize(
    "modules, steps",
    [
        (("iter_lib", "iter_fold"), 99),
        (("iter_lib", "option_iter"), 51),
        (("iter_lib", "range_iter"), 175),
        (("show_lib", "option_show_ok"), 25),
    ],
)
def test_fuel_counts_one_step_per_core_node(modules, steps):
    result = check_sources(
        corpus_sources(*(f"{m}.sl" for m in modules)), CoherencePolicy("use-site")
    )
    assert result.ok, result.diagnostics
    core = elaborate(result.program)
    assert not isinstance(run_program(core, steps), Diagnostic)
    short = run_program(core, steps - 1)
    assert isinstance(short, Diagnostic) and short.code == "E-RT-FUEL"
    assert short.message == "evaluation step budget exceeded"


# ---------------------------------------------------------------- tail calls and depth


def test_long_range_fold_runs_in_constant_stack():
    n = 30_000
    main = f"fn main() -> Unit {{ print(show64(fold(UpTo(0:U64, {n}:U64), 0:U64, add64))) }}"
    source = RANGE_ITER.replace(
        "fn main() -> Unit { print(show64(fold(UpTo(1:U64, 4:U64), 0:U64, add64))) }", main
    )
    _, transcript = run(iter=ITER_LIB, range_iter=source)
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


SUM = """\
module m
fn sum(n: U64) -> U64 {{ if eq64(n, 0:U64) {{ 0:U64 }} else {{ add64(n, sum(sub64(n, 1:U64))) }} }}
fn main() -> Unit {{ print(show64(sum({n}:U64))) }}
"""


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
        interp.apply(interp.global_value(core.entry), [])
    assert failure.value.message == outcome.message
    assert DEFAULT_FUEL - interp.fuel < DEFAULT_FUEL // 10
    assert interp.depth == 0


def test_branches_never_taken_are_never_run():
    core = elaborate(check_inline(iter=ITER).program)
    none = CCtor("std.Option", "None", [U64], [])
    for broken in (
        CMatch(none, [("Some", ["x"], CVar("x"))]),
        CProj(CLit("u64", 1), "missing"),
        CApp(CBuiltin("nosuch"), []),
        CVar("unbound"),
    ):
        value, _ = eval_expr(CIf(CLit("bool", True), CLit("u64", 7), broken), {}, core)
        assert value == VU64(7)
        value, _ = eval_expr(
            CMatch(none, [("Some", ["x"], broken), ("None", [], CLit("u64", 8))]), {}, core
        )
        assert value == VU64(8)


# ---------------------------------------------------------------- runtime errors


@pytest.mark.parametrize(
    "expr, message",
    [
        (CVar("ghost"), "unbound variable ghost"),
        (CProj(CLit("u64", 1), "next"), "bad projection .next"),
        (CMatch(CLit("u64", 1), [(None, [], CLit("u64", 0))]), "match on a non-constructor value"),
        (
            CMatch(CCtor("std.Option", "None", [U64], []), [("Some", ["x"], CVar("x"))]),
            "non-exhaustive match: no arm for None",
        ),
        (CIf(CLit("u64", 1), CLit("u64", 2), CLit("u64", 3)), "if condition is not a boolean"),
        (
            CApp(CLam([("x", U64)], CVar("x")), [CLit("u64", 1), CLit("u64", 2)]),
            "closure expects 1 arguments, got 2",
        ),
        (CApp(CLit("u64", 1), []), "application of a non-function value"),
        (CApp(CBuiltin("nosuch"), []), "unknown builtin nosuch"),
    ],
)
def test_runtime_match_failures_keep_their_messages(expr, message):
    core = elaborate(check_inline(iter=ITER).program)
    with pytest.raises(RuntimeFailure) as failure:
        eval_expr(expr, {}, core)
    assert (failure.value.code, failure.value.message) == ("E-RT-MATCH", message)


@pytest.mark.parametrize(
    "name, args, message",
    [
        ("add64", [VU64(1), VU8(1)], "add64: expected a U64"),
        ("shl", [VU8(1), VU64(1)], "shl: expected a U64"),
        ("eq8", [VU64(1), VU8(1)], "eq8: expected a U8"),
        ("extend64", [VU64(1)], "extend64: expected a U8"),
        ("show64", [VStr("1")], "show64: expected a U64"),
        ("showbool", [VU64(1)], "showbool: expected a Bool"),
        ("showf64", [VU64(1)], "showf64: expected an F64"),
        ("not", [VU8(1)], "not: expected a Bool"),
        ("concat", [VStr("a"), VU64(1)], "concat: expected strings"),
        ("print", [VU64(1)], "print: expected a String"),
        ("fst", [VU64(1)], "fst: expected a pair"),
        ("snd", [VBool(True)], "snd: expected a pair"),
        ("nosuch", [], "unknown builtin nosuch"),
    ],
)
def test_builtin_failures_keep_their_messages(name, args, message):
    interp = Interp(elaborate(check_inline(iter=ITER).program))
    with pytest.raises(RuntimeFailure) as failure:
        interp.builtin(name, args)
    assert (failure.value.code, failure.value.message) == ("E-RT-MATCH", message)


def test_builtin_table_values():
    interp = Interp(elaborate(check_inline(iter=ITER).program))
    assert interp.builtin("shl", [VU64(1), VU64(64)]) == VU64(0)
    assert interp.builtin("shl", [VU64(MASK64), VU64(4)]) == VU64(MASK64 - 15)
    assert interp.builtin("lt8", [VU8(1), VU8(2)]) == VBool(True)
    assert interp.builtin("trunc8", [VU64(0x1FF)]) == VU8(0xFF)
    assert interp.builtin("showf64", [VF64("1.5")]) == VStr("1.5")
    assert interp.builtin("snd", [VTuple(VU8(1), VU64(2))]) == VU64(2)
    assert interp.builtin("concat", [VStr("a"), VStr("b")]) == VStr("ab")
    assert interp.builtin("print", [VStr("hi")]) == VUnit()
    assert interp.transcript == ["hi"]
