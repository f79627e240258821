"""Call-by-value evaluation of core programs.

Values are Python's own wherever Python has one: a Bool is a `bool`, a
String a `str`, Unit is `None`, a pair a plain `tuple` and a dictionary a
plain `dict` from field names to values. Machine integers are `int`s of a
`Word` subclass per width, made with no Python `__init__`; they wrap: U64
arithmetic is modulo 2^64, U8 modulo 2^8. `show` renders unsigned decimal
with no padding. Constructor values and closures have classes of their
own; a builtin is a Python function of its argument values.

The program run must pass `core_check`, the one type check between
elaboration and evaluation, as GHC's Core Lint is between Core and code
generation. Compiled code assumes what it rules out: every name is bound,
every applied value is a function of the application's arity, every
projected value is a dictionary with the field, every scrutinee a
constructor value with the fields its arm binds, every condition a Bool and
every builtin operand of the builtin's kind; none of it is checked again.
The one failure a checked program can reach is a match with no arm for its
value, E-RT-MATCH.

Each definition is compiled whole into Python closures when it is first
forced (closure compilation after Feeley & Lapalme, "Using Closures for Code
Generation", 1987); a definition that never runs is never compiled. An
application in tail position returns its call `pending`, for `Interp.apply`
to run in its own loop, so tail recursion such as `fold` runs in constant
Python stack.

Variables are resolved to slots when their node is compiled (lexical
addressing, after Cardelli, "Compiling a Functional Language", 1984). A node
is compiled in a scope, the tuple of names bound around it, and runs on a
frame, the tuple of their values; a name reads its last slot, so inner
bindings shadow outer ones. A closure runs on its defining frame plus its
arguments, a match arm with binders on the frame plus the constructor's
fields, and a `let` body on the frame plus the bound value.

Fuel counts steps, one per core node evaluated; a variable that leads the
operands of its node is read in place, its step spent with the node's. A
call of a dictionary's method on variables is one node (a superoperator,
after Proebsting, "Optimizing an ANSI C Interpreter with Superoperators",
1995). Closures only spend fuel. The budget is compared where
`Interp.apply` enters a function, which every loop passes, and by
`Interp.settle` when a run ends. Each step is spent where a compare at every
node would spend it, so a run that ends or fails overspent met that compare
first and reports E-RT-FUEL. A separate guard counts nested non-tail
applications. Exhausting either reports E-RT-FUEL, naming which one ran
out, so divergent programs stay total for callers.
"""

from __future__ import annotations

from functools import partial
from operator import add, and_, attrgetter, itemgetter, mul, not_, or_, rshift, sub
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
        return Diagnostic(self.code, self.message, Span.at("<runtime>"))


# Data values compare by type and value; closures and builtins by identity.
class Word(int):
    """A machine integer, equal only to one of its own width."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and int.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    __hash__ = int.__hash__


class VU64(Word):
    __slots__ = ()


class VU8(Word):
    __slots__ = ()


class VF64(Record):
    # lexeme: opaque; never computed with
    __slots__ = ("lexeme",)
    def __init__(self, lexeme: str):
        self.lexeme = lexeme


class VCtor(Record):
    __slots__ = ("data", "name", "args")
    def __init__(self, data: str, name: str, *args):
        self.data, self.name, self.args = data, name, args


class VClosure:
    # body: compiled in tail mode, in the scope of `env` plus the parameters
    __slots__ = ("body", "env")
    def __init__(self, body: Callable, env: tuple):
        self.body, self.env = body, env


# Literal kind -> value of the literal's payload.
LITERALS = {
    "u64": lambda v: VU64(v & MASK64),
    "u8": lambda v: VU8(v & MASK8),
    "bool": bool,
    "string": str,
    "f64": VF64,
    "unit": lambda _v: None,
}


# ---------------------------------------------------------------- builtins
#
# Each builtin is a function of its argument values; `print`, which appends
# to a transcript, is bound by each `Interp`.


def _wrapping(kind: type, op):
    """`op` of two `kind` values, masked to the width of `kind`."""
    mask = MASK64 if kind is VU64 else MASK8
    return lambda a, b: kind(op(a, b) & mask)


BUILTINS = {
    **{
        name: _wrapping(kind, op)
        for name, kind, op in (
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
        )
    },
    # `int`'s own comparisons: `==` on two words would run `Word.__eq__`.
    "eq64": int.__eq__,
    "lt64": int.__lt__,
    "le64": int.__le__,
    "eq8": int.__eq__,
    "lt8": int.__lt__,
    "le8": int.__le__,
    "trunc8": lambda v: VU8(v & MASK8),
    "extend64": VU64,
    "show64": str,
    "show8": str,
    "showbool": lambda v: "true" if v else "false",
    "showf64": attrgetter("lexeme"),
    "not": not_,
    "fst": itemgetter(0),
    "snd": itemgetter(1),
    "concat": add,
}


# ---------------------------------------------------------------- compiled code


def pending(fn, *args):
    """An application in tail position, left for `Interp.apply` to run: the
    list [function, arguments]. No value is a list."""
    return [fn, args]


def _pair(first, second):
    return first, second


def _slot(scope: tuple, e: CoreExpr) -> int | None:
    """The frame index a variable `e` reads: the last occurrence of its name
    in `scope`. None if `e` is no variable of `scope`."""
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
        self.builtins = {**BUILTINS, "print": self.transcript.append}

    # ------------------------------------------------------------- plumbing

    def global_value(self, name: str):
        """Force the global `name`, which is not in `globals` yet."""
        if name in self._forcing:
            raise RuntimeFailure("E-RT-FUEL", f"cyclic global initialization at {name}")
        self._forcing.add(name)
        try:
            value = self.eval(self.program.defs[name].expr, {})
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
        """`fn` applied to `args`; the calls that closure bodies leave
        `pending` run in this loop, which compares the step budget once per
        function it enters."""
        depth = self.depth
        if depth >= MAX_EVAL_DEPTH:
            raise RuntimeFailure("E-RT-FUEL", DEPTH_EXCEEDED)
        self.depth = depth + 1
        try:
            while True:
                if self.fuel < 0:
                    raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
                if type(fn) is not VClosure:  # a builtin
                    return fn(*args)
                result = fn.body(fn.env + args)
                if type(result) is not list:
                    return result
                fn, args = result
        finally:
            self.depth = depth

    # ------------------------------------------------------------- compilation
    #
    # Every compiled closure spends its step on entry, then runs its
    # children in evaluation order. `scope` names the slots of the frame the
    # code runs on. `tail` marks a node whose value is the value of the
    # enclosing closure body: an application there returns its call
    # `pending` instead of nesting `apply`.

    def _compile(self, e: CoreExpr, scope: tuple, tail: bool = False):
        return COMPILERS[type(e)](self, e, scope, tail)

    def _var(self, e: CVar, scope: tuple, tail: bool):
        i = _slot(scope, e)

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
        return self._constant(self.builtins[e.name])

    def _lit(self, e: CLit, scope: tuple, tail: bool):
        return self._constant(LITERALS[e.kind](e.value))

    def _lam(self, e: CLam, scope: tuple, tail: bool):
        body = self._compile(e.body, scope + tuple(n for n, _ in e.params), True)

        def run(env):
            self.fuel -= 1
            return VClosure(body, env)

        return run

    def _call(self, op, steps: int, operands: list[CoreExpr], scope: tuple):
        """Code that spends `steps`, then calls `op` on the values of
        `operands` in order. Variables that lead the operands are read in
        place by getters and their steps spent up front."""
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
            # The builtin is known here: one step for the application, one
            # for the builtin node, and no pending call (builtins return).
            return self._call(self.builtins[fn.name], 2, e.args, scope)
        op = pending if tail else self.apply
        if type(fn) is CProj and type(fn.record) is CVar:
            return self._method(op, fn, e.args, scope)
        return self._call(op, 1, [fn, *e.args], scope)

    def _method(self, op, e: CProj, args: list[CoreExpr], scope: tuple):
        """`e` applied to `args`, where `e` projects a field of a variable: when
        it and one or two arguments are variables, one node reads them in
        place and spends the steps of the application, the projection, the
        variable and the arguments. Other shapes apply the projection's
        value."""
        slots = [_slot(scope, x) for x in (e.record, *args)]
        if None in slots or len(slots) not in (2, 3):
            return self._call(op, 1, [e, *args], scope)
        i, j, k = [*slots, None][:3]  # k is None for one argument
        field, steps = e.field, 2 + len(slots)

        def run(env):
            self.fuel -= steps
            fn = env[i][field]
            return op(fn, env[j]) if k is None else op(fn, env[j], env[k])

        return run

    def _dict(self, e: CDict, scope: tuple, tail: bool):
        fields = [(name, self._compile(x, scope)) for name, x in e.fields.items()]

        def run(env):
            self.fuel -= 1
            return {name: code(env) for name, code in fields}

        return run

    def _proj(self, e: CProj, scope: tuple, tail: bool):
        record, steps = self._operand(e.record, scope)
        field = e.field

        def run(env):
            self.fuel -= steps
            return record(env)[field]

        return run

    def _ctor(self, e: CCtor, scope: tuple, tail: bool):
        return self._call(partial(VCtor, e.data, e.ctor), 1, e.args, scope)

    def _match(self, e: CMatch, scope: tuple, tail: bool):
        scrutinee, steps = self._operand(e.scrutinee, scope)
        # Constructor -> (whether any binder names a field, body) of the
        # first arm that takes it; arms after a wildcard are unreachable.
        # A `_` binder takes a slot that no name reads.
        arms: dict[str, tuple] = {}
        default = None
        for ctor, binders, body in e.arms:
            if ctor is None:
                default = (False, self._compile(body, scope, tail))
                break
            if ctor not in arms:
                names = tuple(None if b == "_" else b for b in binders)
                binds = any(names)
                arms[ctor] = (binds, self._compile(body, scope + names if binds else scope, tail))

        def run(env):
            self.fuel -= steps
            scrut = scrutinee(env)
            arm = arms.get(scrut.name, default)
            if arm is None:  # the one failure a checked program can reach
                raise RuntimeFailure(
                    "E-RT-MATCH", f"non-exhaustive match: no arm for {scrut.name}"
                )
            binds, body = arm
            return body(env + scrut.args) if binds else body(env)

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
        return self._call(_pair, 1, [e.first, e.second], scope)

    def _if(self, e: CIf, scope: tuple, tail: bool):
        cond = self._compile(e.cond, scope)
        then, orelse = self._compile(e.then, scope, tail), self._compile(e.orelse, scope, tail)

        def run(env):
            self.fuel -= 1
            return then(env) if cond(env) else orelse(env)

        return run


COMPILERS = {
    CVar: Interp._var,
    CGlobal: Interp._global,
    CBuiltin: Interp._builtin,
    CLit: Interp._lit,
    CLam: Interp._lam,
    # The elaborator applies types only to a global, in one step with it.
    CTyApp: lambda self, e, scope, tail: self._global(e.fn, scope, tail, 2),
    CApp: Interp._app,
    CDict: Interp._dict,
    CProj: Interp._proj,
    CCtor: Interp._ctor,
    CMatch: Interp._match,
    CLet: Interp._let,
    CTuple: Interp._tuple,
    CIf: Interp._if,
}


def run_program(
    program: CoreProgram, fuel: int = DEFAULT_FUEL
) -> tuple[object, list[str]] | Diagnostic:
    """Run a core program from its entry point; returns (value, transcript)."""
    if program.entry is None:
        return Diagnostic(
            "E-NO-ENTRY",
            "program has no entry point (define exactly one `fn main() -> Unit`)",
            Span.at("<runtime>"),
        )
    interp = Interp(program, fuel)
    try:
        value = interp.settle(lambda: interp.apply(interp.global_value(program.entry)))
    except RuntimeFailure as failure:
        return failure.to_diagnostic()
    except RecursionError:
        # Deeply nested expressions between applications can still exhaust
        # Python's own stack.
        return Diagnostic("E-RT-FUEL", DEPTH_EXCEEDED, Span.at("<runtime>"))
    return value, interp.transcript
