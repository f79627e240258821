"""Call-by-value evaluation of core programs.

Machine integers wrap: U64 arithmetic is modulo 2^64, U8 modulo 2^8. `show`
renders unsigned decimal with no padding.

Each core node is compiled into a Python closure the first time it is
evaluated (closure compilation after Feeley & Lapalme, "Using Closures for
Code Generation", 1987); branches and lambda bodies that never run are never
compiled. An application in tail position returns a pending `TailCall` that
`Interp.apply` runs in its own loop, so tail recursion such as `fold` runs
in constant Python stack.

Variables are resolved to slots when their node is compiled (lexical
addressing, after Cardelli, "Compiling a Functional Language", 1984). A node
is compiled in a scope, the tuple of names bound around it, and runs on a
frame, the tuple of their values; a name reads its last slot, so inner
bindings shadow outer ones. A closure runs on its defining frame plus its
arguments, a match arm with binders on the frame plus the constructor's
fields, and a `let` body on the frame plus the bound value.

Fuel counts steps, one per core node evaluated; a variable that leads the
operands of its node is read in place, its step spent with the node's.
Closures only spend fuel. The budget is compared where `Interp.apply` enters
a function, which every loop passes, and by `Interp.settle` when a run ends.
Each step is spent where a compare at every node would spend it, so a run
that ends or fails overspent met that compare first and reports E-RT-FUEL.
A separate guard counts nested non-tail applications. Exhausting either
reports E-RT-FUEL, naming which one ran out, so divergent programs stay
total for callers.
"""

from __future__ import annotations

from functools import partial
from operator import add, and_, attrgetter, eq, itemgetter, le, lt, mul, or_, rshift, sub
from typing import Callable

from .corekit import (
    CApp,
    CBuiltin,
    CCtor,
    CDict,
    CGlobal,
    CIf,
    CLam,
    CLet,
    CLit,
    CMatch,
    CoreExpr,
    CoreProgram,
    CProj,
    CTuple,
    CTyApp,
    CVar,
)
from .diagnostics import Diagnostic, Record, Span
from .resolver import DEFAULT_FUEL

MASK64 = (1 << 64) - 1
MASK8 = (1 << 8) - 1

# Nested non-tail applications allowed; well inside the Python recursion
# limit `slc` sets, so the guard trips first.
MAX_EVAL_DEPTH = 10_000

STEPS_EXCEEDED = "evaluation step budget exceeded"
DEPTH_EXCEEDED = "evaluation depth exceeded (too many nested non-tail calls)"


class RuntimeFailure(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(message)

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(self.code, self.message, Span("<runtime>", (1, 1), (1, 1)))


# Data values compare by value; closures, dictionaries and builtins by identity.
class VU64(Record):
    __slots__ = ("value",)
    def __init__(self, value: int):
        self.value = value


class VU8(Record):
    __slots__ = ("value",)
    def __init__(self, value: int):
        self.value = value


class VBool(Record):
    __slots__ = ("value",)
    def __init__(self, value: bool):
        self.value = value


class VStr(Record):
    __slots__ = ("value",)
    def __init__(self, value: str):
        self.value = value


class VF64(Record):
    # lexeme: opaque; never computed with
    __slots__ = ("lexeme",)
    def __init__(self, lexeme: str):
        self.lexeme = lexeme


class VUnit(Record):
    __slots__ = ()


class VTuple(Record):
    __slots__ = ("first", "second")
    def __init__(self, first: object, second: object):
        self.first, self.second = first, second


class VCtor(Record):
    __slots__ = ("data", "name", "args")
    def __init__(self, data: str, name: str, *args):
        self.data, self.name, self.args = data, name, args


class VClosure:
    # body: compiled in tail mode, in the scope of `env` plus `arity` parameters
    __slots__ = ("arity", "body", "env")
    def __init__(self, arity: int, body: Lazy, env: tuple):
        self.arity, self.body, self.env = arity, body, env

    def __repr__(self):
        return f"<closure/{self.arity}>"


class VDict:
    # tag: originating model; distinct models yield distinct dictionaries
    __slots__ = ("tag", "fields")
    def __init__(self, tag: str, fields: dict):
        self.tag, self.fields = tag, fields

    def __repr__(self):
        return f"<dict {self.tag}>"


class VBuiltin:
    # op: a function of `arity` values, or None for an unknown name
    __slots__ = ("name", "arity", "op")
    def __init__(self, name: str, arity: int, op):
        self.name, self.arity, self.op = name, arity, op


# Literal kind -> value of the literal's payload.
LITERALS = {
    "u64": lambda v: VU64(v & MASK64),
    "u8": lambda v: VU8(v & MASK8),
    "bool": VBool,
    "string": VStr,
    "f64": VF64,
    "unit": lambda _v: VUnit(),
}


# ---------------------------------------------------------------- builtins
#
# Each builtin is a function of its argument values, kept with its arity;
# `print`, which appends to a transcript, is bound by each `Interp`.

EXPECTED = {VU64: "a U64", VU8: "a U8", VBool: "a Bool", VF64: "an F64", VTuple: "a pair"}


def _binary(name: str, kind: type, op, wrap=None):
    """`op` of the payloads of two `kind` values: wrapped by `wrap`, or else
    masked to the width of `kind`."""
    mask = MASK64 if kind is VU64 else MASK8

    def run(a, b):
        if type(a) is not kind or type(b) is not kind:
            raise RuntimeFailure("E-RT-MATCH", f"{name}: expected {EXPECTED[kind]}")
        if wrap is None:
            return kind(op(a.value, b.value) & mask)
        return wrap(op(a.value, b.value))

    return 2, run


def _unary(name: str, kind: type, op):
    def run(v):
        if type(v) is not kind:
            raise RuntimeFailure("E-RT-MATCH", f"{name}: expected {EXPECTED[kind]}")
        return op(v)

    return 1, run


def _concat(a, b):
    if type(a) is not VStr or type(b) is not VStr:
        raise RuntimeFailure("E-RT-MATCH", "concat: expected strings")
    return VStr(a.value + b.value)


BUILTINS = {
    **{
        name: _binary(name, *rest)
        for name, *rest in (
            ("band", VU64, and_),
            ("bor", VU64, or_),
            ("shl", VU64, lambda a, b: a << b if b < 64 else 0),
            ("shr", VU64, rshift),
            ("add64", VU64, add),
            ("sub64", VU64, sub),
            ("mul64", VU64, mul),
            ("add8", VU8, add),
            ("sub8", VU8, sub),
            ("mul8", VU8, mul),
            ("eq64", VU64, eq, VBool),
            ("lt64", VU64, lt, VBool),
            ("le64", VU64, le, VBool),
            ("eq8", VU8, eq, VBool),
            ("lt8", VU8, lt, VBool),
            ("le8", VU8, le, VBool),
        )
    },
    **{
        name: _unary(name, kind, op)
        for name, kind, op in (
            ("trunc8", VU64, lambda v: VU8(v.value & MASK8)),
            ("extend64", VU8, lambda v: VU64(v.value)),
            ("show64", VU64, lambda v: VStr(str(v.value))),
            ("show8", VU8, lambda v: VStr(str(v.value))),
            ("showbool", VBool, lambda v: VStr("true" if v.value else "false")),
            ("showf64", VF64, lambda v: VStr(v.lexeme)),
            ("not", VBool, lambda v: VBool(not v.value)),
            ("fst", VTuple, attrgetter("first")),
            ("snd", VTuple, attrgetter("second")),
        )
    },
    "concat": (2, _concat),
}


# ---------------------------------------------------------------- compiled code


class TailCall:
    """An application in tail position, left for `Interp.apply` to run."""

    __slots__ = ("fn", "args")

    def __init__(self, fn, *args):
        self.fn = fn
        self.args = args


class Lazy:
    """A node compiled on its first evaluation: `run` starts as a stub that
    compiles the node, replaces itself with the result and runs it."""

    __slots__ = ("run",)


def _slot(scope: tuple, e: CoreExpr) -> int | None:
    """The frame index a variable `e` reads: the last occurrence of its name
    in `scope`. None if `e` is no variable or is unbound."""
    if type(e) is CVar and e.name in scope:
        return len(scope) - 1 - scope[::-1].index(e.name)
    return None


class Interp:
    def __init__(self, program: CoreProgram, fuel: int = DEFAULT_FUEL):
        self.program = program
        self.fuel = fuel
        self.depth = 0  # nested non-tail applications
        self.transcript: list[str] = []
        self.globals: dict[str, object] = {}
        self._forcing: set[str] = set()
        self.builtins = {**BUILTINS, "print": (1, self._print)}

    def _print(self, s):
        if type(s) is not VStr:
            raise RuntimeFailure("E-RT-MATCH", "print: expected a String")
        self.transcript.append(s.value)
        return VUnit()

    # ------------------------------------------------------------- plumbing

    def global_value(self, name: str):
        if name in self.globals:
            return self.globals[name]
        if name in self._forcing:
            raise RuntimeFailure("E-RT-FUEL", f"cyclic global initialization at {name}")
        d = self.program.defs.get(name)
        if d is None:
            raise RuntimeFailure("E-RT-MATCH", f"undefined global {name}")
        self._forcing.add(name)
        try:
            value = self.eval(d.expr, {})
        finally:
            self._forcing.discard(name)
        self.globals[name] = value
        return value

    # ------------------------------------------------------------- evaluation

    def eval(self, e: CoreExpr, env: dict):
        return self._compile(e, tuple(env))(tuple(env.values()))

    def settle(self, run: Callable[[], object]):
        """`run()`, unless it overspent the step budget: then whatever it
        returned or raised is reported as the budget running out."""
        try:
            value = run()
        except (RuntimeFailure, RecursionError):
            if self.fuel >= 0:
                raise
        if self.fuel < 0:
            raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
        return value

    def apply(self, fn, *args):
        """`fn` applied to `args`; tail calls run in this loop, which compares
        the step budget once per function it enters."""
        if self.depth >= MAX_EVAL_DEPTH:
            raise RuntimeFailure("E-RT-FUEL", DEPTH_EXCEEDED)
        self.depth += 1
        try:
            while True:
                if self.fuel < 0:
                    raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
                if type(fn) is not VClosure:
                    if type(fn) is not VBuiltin:
                        raise RuntimeFailure("E-RT-MATCH", "application of a non-function value")
                    if fn.op is None:
                        raise RuntimeFailure("E-RT-MATCH", f"unknown builtin {fn.name}")
                    if len(args) != fn.arity:
                        raise RuntimeFailure(
                            "E-RT-MATCH", f"{fn.name} expects {fn.arity} arguments, got {len(args)}"
                        )
                    return fn.op(*args)
                if fn.arity != len(args):
                    raise RuntimeFailure(
                        "E-RT-MATCH", f"closure expects {fn.arity} arguments, got {len(args)}"
                    )
                result = fn.body.run(fn.env + args)
                if type(result) is not TailCall:
                    return result
                fn, args = result.fn, result.args
        finally:
            self.depth -= 1

    def builtin(self, name: str, args: list):
        return self.apply(VBuiltin(name, *self.builtins.get(name, (0, None))), *args)

    # ------------------------------------------------------------- compilation
    #
    # Every compiled closure spends its step on entry, then runs its
    # children in evaluation order. `scope` names the slots of the frame the
    # code runs on. `tail` marks a node whose value is the value of the
    # enclosing closure body: an application there returns a TailCall
    # instead of nesting `apply`.

    def _compile(self, e: CoreExpr, scope: tuple, tail: bool = False):
        return COMPILERS[type(e)](self, e, scope, tail)

    def _lazy(self, e: CoreExpr, scope: tuple, tail: bool) -> Lazy:
        slot = Lazy()

        def first(env):
            slot.run = self._compile(e, scope, tail)
            return slot.run(env)

        slot.run = first
        return slot

    def _var(self, e: CVar, scope: tuple, tail: bool):
        i = _slot(scope, e)
        if i is None:  # bound nowhere in scope: spends its step, then fails
            message = f"unbound variable {e.name}"

            def run(env):
                self.fuel -= 1
                raise RuntimeFailure("E-RT-MATCH", message)

        else:

            def run(env):
                self.fuel -= 1
                return env[i]

        return run

    def _global(self, e: CGlobal, scope: tuple, tail: bool, steps: int = 1):
        name, values = e.name, self.globals

        def run(env):
            self.fuel -= steps
            try:
                return values[name]
            except KeyError:  # not forced yet
                return self.global_value(name)

        return run

    def _constant(self, value):
        def run(env):
            self.fuel -= 1
            return value

        return run

    def _builtin(self, e: CBuiltin, scope: tuple, tail: bool):
        return self._constant(VBuiltin(e.name, *self.builtins.get(e.name, (0, None))))

    def _lit(self, e: CLit, scope: tuple, tail: bool):
        return self._constant(LITERALS[e.kind](e.value))

    def _lam(self, e: CLam, scope: tuple, tail: bool):
        arity = len(e.params)
        body = self._lazy(e.body, scope + tuple(n for n, _ in e.params), True)

        def run(env):
            self.fuel -= 1
            return VClosure(arity, body, env)

        return run

    def _through(self, inner: CoreExpr, scope: tuple, tail: bool):
        """A type abstraction or application: one step, then `inner`."""
        if type(inner) is CGlobal:
            return self._global(inner, scope, tail, 2)
        code = self._compile(inner, scope, tail)

        def run(env):
            self.fuel -= 1
            return code(env)

        return run

    def _call(self, op, steps: int, operands: list[CoreExpr], scope: tuple):
        """Code that spends `steps`, then calls `op` on the values of
        `operands` in order. Bound variables that lead the operands are read
        in place by getters and their steps spent up front; an unbound one
        ends the lead and spends its own step when it fails."""
        codes, lead = [], 0
        for e in operands:
            i = _slot(scope, e) if lead == len(codes) else None
            if i is None:
                codes.append(self._compile(e, scope))
            else:
                lead += 1
                codes.append(itemgetter(i))
        steps += lead
        n = len(codes)
        if n == 1:
            (a,) = codes

            def run(env):
                self.fuel -= steps
                return op(a(env))

        elif n == 2:
            a, b = codes

            def run(env):
                self.fuel -= steps
                return op(a(env), b(env))

        elif n == 3:
            a, b, c = codes

            def run(env):
                self.fuel -= steps
                return op(a(env), b(env), c(env))

        elif n == 4:
            a, b, c, d = codes

            def run(env):
                self.fuel -= steps
                return op(a(env), b(env), c(env), d(env))

        elif n == 5:
            a, b, c, d, f = codes

            def run(env):
                self.fuel -= steps
                return op(a(env), b(env), c(env), d(env), f(env))

        else:
            a = codes

            def run(env):
                self.fuel -= steps
                return op(*[code(env) for code in a])

        return run

    def _operand(self, e: CoreExpr, scope: tuple):
        """Code for `e`, the one operand of a projection or match, and the
        steps its node spends up front: two if `e` is read in place."""
        i = _slot(scope, e)
        return (self._compile(e, scope), 1) if i is None else (itemgetter(i), 2)

    def _app(self, e: CApp, scope: tuple, tail: bool):
        fn = e.fn
        if type(fn) is CBuiltin:
            arity, op = self.builtins.get(fn.name, (None, None))
            if arity == len(e.args):
                # The builtin is known here: one step for the application, one
                # for the builtin node, and no pending call (builtins return).
                return self._call(op, 2, e.args, scope)
        return self._call(TailCall if tail else self.apply, 1, [fn, *e.args], scope)

    def _dict(self, e: CDict, scope: tuple, tail: bool):
        tag = e.tag
        fields = [(name, self._compile(x, scope)) for name, x in e.fields.items()]

        def run(env):
            self.fuel -= 1
            return VDict(tag, {name: code(env) for name, code in fields})

        return run

    def _proj(self, e: CProj, scope: tuple, tail: bool):
        record, steps = self._operand(e.record, scope)
        field = e.field

        def run(env):
            self.fuel -= steps
            rec = record(env)
            if type(rec) is VDict:
                value = rec.fields.get(field)
                if value is not None:
                    return value
            raise RuntimeFailure("E-RT-MATCH", f"bad projection .{field}")

        return run

    def _ctor(self, e: CCtor, scope: tuple, tail: bool):
        return self._call(partial(VCtor, e.data, e.ctor), 1, e.args, scope)

    def _match(self, e: CMatch, scope: tuple, tail: bool):
        scrutinee, steps = self._operand(e.scrutinee, scope)
        # Constructor -> (number of binders, or None if none binds, body) of
        # the first arm that takes it; arms after a wildcard are unreachable.
        # A `_` binder takes a slot that no name reads.
        arms: dict[str, tuple] = {}
        default = None
        for ctor, binders, body in e.arms:
            if ctor is None:
                default = (None, self._lazy(body, scope, tail))
                break
            if ctor not in arms:
                names = tuple(None if b == "_" else b for b in binders)
                binds = len(names) if any(names) else None
                arms[ctor] = (binds, self._lazy(body, scope + names if binds else scope, tail))

        def run(env):
            self.fuel -= steps
            scrut = scrutinee(env)
            if type(scrut) is not VCtor:
                raise RuntimeFailure("E-RT-MATCH", "match on a non-constructor value")
            arm = arms.get(scrut.name, default)
            if arm is None:
                raise RuntimeFailure(
                    "E-RT-MATCH", f"non-exhaustive match: no arm for {scrut.name}"
                )
            binds, body = arm
            if binds is None:
                return body.run(env)
            args = scrut.args
            if len(args) != binds:
                message = f"pattern arity: {scrut.name} has {len(args)} fields, the arm binds {binds}"
                raise RuntimeFailure("E-RT-MATCH", message)
            return body.run(env + args)

        return run

    def _let(self, e: CLet, scope: tuple, tail: bool):
        bind = e.name != "_"
        bound = self._compile(e.bound, scope)
        body = self._compile(e.body, scope + (e.name,) if bind else scope, tail)

        def run(env):
            self.fuel -= 1
            value = bound(env)
            return body(env + (value,) if bind else env)

        return run

    def _tuple(self, e: CTuple, scope: tuple, tail: bool):
        return self._call(VTuple, 1, [e.first, e.second], scope)

    def _if(self, e: CIf, scope: tuple, tail: bool):
        cond = self._compile(e.cond, scope)
        then, orelse = self._lazy(e.then, scope, tail), self._lazy(e.orelse, scope, tail)

        def run(env):
            self.fuel -= 1
            c = cond(env)
            if type(c) is not VBool:
                raise RuntimeFailure("E-RT-MATCH", "if condition is not a boolean")
            return then.run(env) if c.value else orelse.run(env)

        return run


COMPILERS = {
    CVar: Interp._var,
    CGlobal: Interp._global,
    CBuiltin: Interp._builtin,
    CLit: Interp._lit,
    CLam: Interp._lam,
    CTyApp: lambda self, e, scope, tail: self._through(e.fn, scope, tail),
    CApp: Interp._app,
    CDict: Interp._dict,
    CProj: Interp._proj,
    CCtor: Interp._ctor,
    CMatch: Interp._match,
    CLet: Interp._let,
    CTuple: Interp._tuple,
    CIf: Interp._if,
}


def eval_expr(e: CoreExpr, env: dict, program: CoreProgram, fuel: int = DEFAULT_FUEL):
    """Evaluate a single core expression in an environment."""
    interp = Interp(program, fuel)
    value = interp.settle(lambda: interp.eval(e, env))
    return value, interp.transcript


def run_program(
    program: CoreProgram, fuel: int = DEFAULT_FUEL
) -> tuple[object, list[str]] | Diagnostic:
    """Run a core program from its entry point; returns (value, transcript)."""
    if program.entry is None:
        return Diagnostic(
            "E-NO-ENTRY",
            "program has no entry point (define exactly one `fn main() -> Unit`)",
            Span("<runtime>", (1, 1), (1, 1)),
        )
    interp = Interp(program, fuel)
    try:
        value = interp.settle(lambda: interp.apply(interp.global_value(program.entry)))
    except RuntimeFailure as failure:
        return failure.to_diagnostic()
    except RecursionError:
        # Deeply nested expressions between applications can still exhaust
        # Python's own stack.
        return Diagnostic("E-RT-FUEL", DEPTH_EXCEEDED, Span("<runtime>", (1, 1), (1, 1)))
    return value, interp.transcript
