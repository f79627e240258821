"""Call-by-value evaluation of core programs.

Machine integers wrap: U64 arithmetic is modulo 2^64, U8 modulo 2^8. `show`
renders unsigned decimal with no padding.

Each core node is compiled into a Python closure the first time it is
evaluated (closure compilation after Feeley & Lapalme, "Using Closures for
Code Generation", 1987); branches and lambda bodies that never run are never
compiled. An application in tail position returns a pending `TailCall` that
`Interp.apply` runs in its own loop, so tail recursion such as `fold` runs
in constant Python stack. Fuel counts steps, one per core node evaluated;
a separate guard counts nested non-tail applications. Exhausting either
reports E-RT-FUEL, naming which one ran out, so divergent programs stay
total for callers.
"""

from __future__ import annotations

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

MASK64 = (1 << 64) - 1
MASK8 = (1 << 8) - 1

DEFAULT_FUEL = 10_000_000
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
    def __init__(self, data: str, name: str, args: list):
        self.data, self.name, self.args = data, name, args


class VClosure:
    # body: compiled in tail mode
    __slots__ = ("params", "body", "env")
    def __init__(self, params: list[str], body: Lazy, env: dict):
        self.params, self.body, self.env = params, body, env

    def __repr__(self):
        return f"<closure/{len(self.params)}>"


class VDict:
    # tag: originating model; distinct models yield distinct dictionaries
    __slots__ = ("tag", "fields")
    def __init__(self, tag: str, fields: dict):
        self.tag, self.fields = tag, fields

    def __repr__(self):
        return f"<dict {self.tag}>"


class VBuiltin:
    __slots__ = ("name", "run")
    def __init__(self, name: str, run: Callable[[list, list[str]], object]):
        self.name, self.run = name, run


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
# Each builtin takes its argument values and the transcript `print` appends to.

EXPECTED = {VU64: "a U64", VU8: "a U8", VBool: "a Bool", VF64: "an F64", VTuple: "a pair"}


def _unary(name: str, kind: type, op):
    def run(args, out):
        v = args[0]
        if not isinstance(v, kind):
            raise RuntimeFailure("E-RT-MATCH", f"{name}: expected {EXPECTED[kind]}")
        return op(v)

    return run


def _binary(name: str, kind: type, op):
    """`op` takes the two payloads."""

    def run(args, out):
        a, b = args[0], args[1]
        if not (isinstance(a, kind) and isinstance(b, kind)):
            raise RuntimeFailure("E-RT-MATCH", f"{name}: expected {EXPECTED[kind]}")
        return op(a.value, b.value)

    return run


def _concat(args, out):
    a, b = args
    if not (isinstance(a, VStr) and isinstance(b, VStr)):
        raise RuntimeFailure("E-RT-MATCH", "concat: expected strings")
    return VStr(a.value + b.value)


def _print(args, out):
    if not isinstance(args[0], VStr):
        raise RuntimeFailure("E-RT-MATCH", "print: expected a String")
    out.append(args[0].value)
    return VUnit()


BUILTINS = {
    **{
        name: _binary(name, kind, op)
        for name, kind, op in (
            ("band", VU64, lambda a, b: VU64(a & b)),
            ("bor", VU64, lambda a, b: VU64(a | b)),
            ("shl", VU64, lambda a, b: VU64((a << b) & MASK64 if b < 64 else 0)),
            ("shr", VU64, lambda a, b: VU64(a >> b if b < 64 else 0)),
            ("add64", VU64, lambda a, b: VU64((a + b) & MASK64)),
            ("sub64", VU64, lambda a, b: VU64((a - b) & MASK64)),
            ("mul64", VU64, lambda a, b: VU64((a * b) & MASK64)),
            ("add8", VU8, lambda a, b: VU8((a + b) & MASK8)),
            ("sub8", VU8, lambda a, b: VU8((a - b) & MASK8)),
            ("mul8", VU8, lambda a, b: VU8((a * b) & MASK8)),
            ("eq64", VU64, lambda a, b: VBool(a == b)),
            ("lt64", VU64, lambda a, b: VBool(a < b)),
            ("le64", VU64, lambda a, b: VBool(a <= b)),
            ("eq8", VU8, lambda a, b: VBool(a == b)),
            ("lt8", VU8, lambda a, b: VBool(a < b)),
            ("le8", VU8, lambda a, b: VBool(a <= b)),
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
            ("fst", VTuple, lambda v: v.first),
            ("snd", VTuple, lambda v: v.second),
        )
    },
    "concat": _concat,
    "print": _print,
}


def builtin_op(name: str):
    """The table entry for `name`; an unknown name fails when applied."""
    op = BUILTINS.get(name)
    if op is None:

        def op(args, out):
            raise RuntimeFailure("E-RT-MATCH", f"unknown builtin {name}")

    return op


# ---------------------------------------------------------------- compiled code


class TailCall:
    """An application in tail position, left for `Interp.apply` to run."""

    __slots__ = ("fn", "args")

    def __init__(self, fn, args: list):
        self.fn = fn
        self.args = args


class Lazy:
    """A node compiled on its first evaluation: `run` starts as a stub that
    compiles the node, replaces itself with the result and runs it."""

    __slots__ = ("run",)


class Interp:
    def __init__(self, program: CoreProgram, fuel: int = DEFAULT_FUEL):
        self.program = program
        self.fuel = fuel
        self.depth = 0  # nested non-tail applications
        self.transcript: list[str] = []
        self.globals: dict[str, object] = {}
        self._forcing: set[str] = set()

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
        return self._compile(e, False)(env)

    def apply(self, fn, args: list):
        if self.depth >= MAX_EVAL_DEPTH:
            raise RuntimeFailure("E-RT-FUEL", DEPTH_EXCEEDED)
        self.depth += 1
        try:
            while True:
                if type(fn) is not VClosure:
                    if type(fn) is VBuiltin:
                        return fn.run(args, self.transcript)
                    raise RuntimeFailure("E-RT-MATCH", "application of a non-function value")
                if len(fn.params) != len(args):
                    raise RuntimeFailure(
                        "E-RT-MATCH",
                        f"closure expects {len(fn.params)} arguments, got {len(args)}",
                    )
                env = dict(fn.env)
                env.update(zip(fn.params, args))
                result = fn.body.run(env)
                if type(result) is not TailCall:
                    return result
                fn, args = result.fn, result.args
        finally:
            self.depth -= 1

    def builtin(self, name: str, args: list):
        return builtin_op(name)(args, self.transcript)

    # ------------------------------------------------------------- compilation
    #
    # Every compiled closure burns one unit of fuel on entry, then runs its
    # children in evaluation order. `tail` marks a node whose value is the
    # value of the enclosing closure body: an application there returns a
    # TailCall instead of nesting `apply`.

    def _compile(self, e: CoreExpr, tail: bool):
        return COMPILERS[type(e)](self, e, tail)

    def _lazy(self, e: CoreExpr, tail: bool) -> Lazy:
        slot = Lazy()

        def first(env):
            slot.run = self._compile(e, tail)
            return slot.run(env)

        slot.run = first
        return slot

    def _var(self, e: CVar, tail: bool):
        name = e.name

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            try:
                return env[name]
            except KeyError:
                raise RuntimeFailure("E-RT-MATCH", f"unbound variable {name}") from None

        return run

    def _global(self, e: CGlobal, tail: bool):
        name, values = e.name, self.globals

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            value = values.get(name)
            return value if value is not None else self.global_value(name)

        return run

    def _constant(self, value):
        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            return value

        return run

    def _builtin(self, e: CBuiltin, tail: bool):
        return self._constant(VBuiltin(e.name, builtin_op(e.name)))

    def _lit(self, e: CLit, tail: bool):
        return self._constant(LITERALS[e.kind](e.value))

    def _lam(self, e: CLam, tail: bool):
        params = [n for n, _ in e.params]
        body = self._lazy(e.body, True)

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            return VClosure(params, body, env)

        return run

    def _through(self, inner: CoreExpr, tail: bool):
        """A type abstraction or application: one step, then `inner`."""
        code = self._compile(inner, tail)

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            return code(env)

        return run

    def _app(self, e: CApp, tail: bool):
        args = [self._compile(a, False) for a in e.args]
        if isinstance(e.fn, CBuiltin):
            # The builtin is known here: one step for the application, one
            # for the builtin node, and no pending call (builtins return).
            op, out = builtin_op(e.fn.name), self.transcript

            def run_builtin(env):
                self.fuel -= 2
                if self.fuel < 0:
                    raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
                return op([a(env) for a in args], out)

            return run_builtin
        fn = self._compile(e.fn, False)
        call = TailCall if tail else self.apply

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            return call(fn(env), [a(env) for a in args])

        return run

    def _dict(self, e: CDict, tail: bool):
        tag = e.tag
        fields = [(name, self._compile(x, False)) for name, x in e.fields.items()]

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            return VDict(tag, {name: code(env) for name, code in fields})

        return run

    def _proj(self, e: CProj, tail: bool):
        record, field = self._compile(e.record, False), e.field

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            rec = record(env)
            if isinstance(rec, VDict):
                value = rec.fields.get(field)
                if value is not None:
                    return value
            raise RuntimeFailure("E-RT-MATCH", f"bad projection .{field}")

        return run

    def _ctor(self, e: CCtor, tail: bool):
        data, ctor = e.data, e.ctor
        args = [self._compile(a, False) for a in e.args]

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            return VCtor(data, ctor, [a(env) for a in args])

        return run

    def _match(self, e: CMatch, tail: bool):
        scrutinee = self._compile(e.scrutinee, False)
        # Constructor -> (binders or None, body) of the first arm that takes
        # it; arms after a wildcard are unreachable.
        arms: dict[str, tuple] = {}
        default = None
        for ctor, binders, body in e.arms:
            binds = binders if any(b != "_" for b in binders) else None
            if ctor is None:
                default = (None, self._lazy(body, tail))
                break
            if ctor not in arms:
                arms[ctor] = (binds, self._lazy(body, tail))

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            scrut = scrutinee(env)
            if not isinstance(scrut, VCtor):
                raise RuntimeFailure("E-RT-MATCH", "match on a non-constructor value")
            arm = arms.get(scrut.name, default)
            if arm is None:
                raise RuntimeFailure(
                    "E-RT-MATCH", f"non-exhaustive match: no arm for {scrut.name}"
                )
            binds, body = arm
            if binds is None:
                return body.run(env)
            inner = dict(env)
            for b, v in zip(binds, scrut.args):
                if b != "_":
                    inner[b] = v
            return body.run(inner)

        return run

    def _let(self, e: CLet, tail: bool):
        name = e.name
        bound, body = self._compile(e.bound, False), self._compile(e.body, tail)

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            value = bound(env)
            return body(env if name == "_" else {**env, name: value})

        return run

    def _tuple(self, e: CTuple, tail: bool):
        first, second = self._compile(e.first, False), self._compile(e.second, False)

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            return VTuple(first(env), second(env))

        return run

    def _if(self, e: CIf, tail: bool):
        cond = self._compile(e.cond, False)
        then, orelse = self._lazy(e.then, tail), self._lazy(e.orelse, tail)

        def run(env):
            self.fuel -= 1
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            c = cond(env)
            if not isinstance(c, VBool):
                raise RuntimeFailure("E-RT-MATCH", "if condition is not a boolean")
            return then.run(env) if c.value else orelse.run(env)

        return run


COMPILERS = {
    CVar: Interp._var,
    CGlobal: Interp._global,
    CBuiltin: Interp._builtin,
    CLit: Interp._lit,
    CLam: Interp._lam,
    CTyApp: lambda self, e, tail: self._through(e.fn, tail),
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
    value = interp.eval(e, env)
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
        main = interp.global_value(program.entry)
        value = interp.apply(main, [])
    except RuntimeFailure as failure:
        return failure.to_diagnostic()
    except RecursionError:
        # Deeply nested expressions between applications can still exhaust
        # Python's own stack.
        return Diagnostic("E-RT-FUEL", DEPTH_EXCEEDED, Span("<runtime>", (1, 1), (1, 1)))
    return value, interp.transcript
