"""Call-by-value evaluation of core programs.

Values are Python's own wherever Python has one: a Bool is a `bool`, a
String a `str`, Unit is `None`, a pair a plain `tuple`, a dictionary a
plain `dict` from field names to values and a machine integer an `int` in
its width's range, untagged (`core_check` rules out any mix of widths). U64
arithmetic wraps modulo 2^64, U8 modulo 2^8. `show` renders unsigned
decimal with no padding. Constructor values and closures have classes of
their own; a builtin is a Python function of its argument values.

The program run must pass `core_check`, the one type check between
elaboration and evaluation, as GHC's Core Lint is between Core and code
generation, and nothing it rules out is checked again: every name is bound,
every applied value a function of the application's arity, every projection
finds its field and every match arm binds its constructor's fields. The one
failure a checked program can reach is a match with no arm for its value,
E-RT-MATCH.

Each definition is compiled whole into Python closures when it is first
forced (Feeley & Lapalme, "Using Closures for Code Generation", 1987).
Applications follow an eval/apply convention (Marlow & Peyton Jones, "Making
a fast curry", 2004): the node of an application evaluates the function and
its arguments and enters the function in its own Python frame, after the
depth guard and a budget compare, then runs the call that body left pending,
if any (`Interp.resume`). An application in tail position leaves its call
pending instead, the list [function, arguments] (no value is a list), so
tail recursion such as `fold` loops in constant Python stack. Superoperators
(Proebsting, "Optimizing an ANSI C Interpreter with Superoperators", 1995)
fuse the node pairs that dictionary-passing code runs most: a call of a
dictionary's method on variables, and the match or `if` that takes its
value; a call and its global callee; a call and its operands that are `fst`
or `snd` of a variable; a constructor and its pair operand; and a builtin
that can leave its width and the mask. So a `range_fold` element runs 11
Python calls and 601 bytecodes (`tests/test_evaluator.py`).

Variables are resolved to slots when their node is compiled (lexical
addressing, after Cardelli, "Compiling a Functional Language", 1984): a node
is compiled in a scope, which maps each name bound around it to the slot of
its innermost binding, and runs on a frame, the list of their values, where
an item getter reads a variable in place. Closures are flat (Dybvig, "Three
Implementation Models for Scheme", 1987; Shao & Appel, "Space-Efficient
Closure Representations", 1994): a lambda copies the values of the
variables its body reads from around it when it is built, and each entry to
its body builds one frame, those values plus the arguments. A `let` or a
match stores its values into that frame from the first slot its scope
leaves free (`frame[k:] = values`), so a later sibling reuses the slot, and
no frame is shared or copied.

Fuel counts steps, one per core node evaluated. A node does not spend its
own: steps are counted when the code is compiled and spent together where
the run may fail or enters a function, so the budget, compared where a
function is entered and when a run ends (`Interp.settle`), runs out at the
same failure as a compare at every node would. A separate guard counts
nested non-tail applications; exhausting either reports E-RT-FUEL, naming
which one ran out, so divergent programs stay total for callers.
"""

from __future__ import annotations

from functools import partial
from operator import add, and_, attrgetter, eq, itemgetter, le, lt, mul, not_, or_, rshift, sub
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
from .decls import bind, restore
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
        self.code, self.message = code, message
        super().__init__(message)

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(self.code, self.message, Span.at("<runtime>"))


# Data values compare by type and value; closures and builtins by identity.
class VF64(Record):
    # lexeme: opaque; never computed with
    __slots__ = ("lexeme",)
    def __init__(self, lexeme: str):
        self.lexeme = lexeme


class VCtor(Record):
    # made with no Python `__init__`, by the node that evaluates its fields
    __slots__ = ("data", "name", "args")


_new = object.__new__


class VClosure:
    # body: compiled in tail mode, to run on `env` plus the arguments
    # env: the values of the variables the body reads from around it
    __slots__ = ("body", "env")
    def __init__(self, body: Callable, env: list):
        self.body, self.env = body, env


class Arms(dict):
    """The arms of a match: constructor name -> the arm's body, and None ->
    the wildcard arm's, which takes each constructor with no arm of its own."""

    def __missing__(self, name: str):
        if None not in self:  # the one failure a checked program can reach
            raise RuntimeFailure("E-RT-MATCH", f"non-exhaustive match: no arm for {name}")
        return self[None]


# Literal kind -> value of the literal's payload.
LITERALS = {
    "u64": lambda v: v & MASK64,
    "u8": lambda v: v & MASK8,
    "bool": bool,
    "string": str,
    "f64": VF64,
    "unit": lambda _v: None,
}


# ---------------------------------------------------------------- builtins
#
# Each builtin is a function of its argument values; `print`, which appends
# to a transcript, is bound by each `Interp`.

# The builtins whose results can leave their width: `operator`'s function
# and the width's mask. A direct application computes `op(a, b) & mask` in
# its own node.
WRAPPING = {
    "add64": (add, MASK64), "sub64": (sub, MASK64), "mul64": (mul, MASK64),
    "add8": (add, MASK8), "sub8": (sub, MASK8), "mul8": (mul, MASK8),
}

BUILTINS = {
    **{name: (lambda a, b, op=op, mask=mask: op(a, b) & mask)
       for name, (op, mask) in WRAPPING.items()},
    "band": and_,  # these three stay in range
    "bor": or_,
    "shr": rshift,
    "shl": lambda a, b: a << b & MASK64 if b < 64 else 0,
    "eq64": eq, "lt64": lt, "le64": le,
    "eq8": eq, "lt8": lt, "le8": le,
    "trunc8": partial(and_, MASK8),
    "extend64": int,
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


def _bind(scope: dict, names) -> list:
    """`bind` `names` in `scope` to the next slots (`_` takes one no name
    reads). A scope maps each name bound around a node to its innermost
    binding's slot, None to the first free slot."""
    slots = range(scope[None], scope[None] + len(names))
    return bind(scope, [(None, slots.stop), *zip(names, slots)])


def _getter(slots: list[int]):
    """A function of a frame that returns the values of `slots` as a new
    list: a C slice getter where they are consecutive."""
    start = slots[0] if slots else 0
    if slots == list(range(start, start + len(slots))):
        return itemgetter(slice(start, start + len(slots)))
    values = itemgetter(*slots)
    return lambda env: [*values(env)]


# The children of each kind of core node that has some but a variable.
CHILDREN = {
    CLam: lambda e: [e.body],
    CApp: lambda e: [e.fn, *e.args],
    CTyApp: lambda e: [e.fn],
    CDict: lambda e: e.fields.values(),
    CProj: lambda e: [e.record],
    CCtor: lambda e: e.args,
    CMatch: lambda e: [e.scrutinee, *(body for _, _, body in e.arms)],
    CLet: lambda e: [e.bound, e.body],
    CTuple: lambda e: [e.first, e.second],
    CIf: lambda e: [e.cond, e.then, e.orelse],
}


def _free(e: CoreExpr, scope: dict) -> list:
    """The names bound in `scope` that `e` reads, also under an inner binding
    of the name, in the order of their slots (none in a global's scope)."""
    reads, todo = {}, [e] if scope[None] else []
    while todo:
        e = todo.pop()
        if type(e) is CVar and e.name in scope:
            reads[e.name] = None
        elif type(e) in CHILDREN:
            todo += CHILDREN[type(e)](e)
    return sorted(reads, key=scope.get)


def _method_call(e: CoreExpr, scope: dict) -> bool:
    """Whether `e` applies a field of a variable to variables."""
    return type(e) is CApp and type(e.fn) is CProj and all(
        type(x) is CVar and x.name in scope for x in (e.fn.record, *e.args)
    )


def _pick(e: CApp, scope: dict):
    """The index of the component that `e` reads where it is `fst` or `snd`
    of a variable, else None."""
    if type(e.fn) is not CBuiltin or len(e.args) != 1 or type(e.args[0]) is not CVar:
        return None
    return {"fst": 0, "snd": 1}.get(e.fn.name) if e.args[0].name in scope else None


def _values(codes: list, env: list) -> list:
    """The values of `codes` on `env`, for the rarer numbers of operands.
    (A comprehension in a node's own code would make `env` a cell there.)"""
    return [code(env) for code in codes]


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
        _bind(scope := {None: 0}, env)
        return self._compile(e, scope, 0, False, True)[0](list(env.values()))

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

    def exhausted(self) -> RuntimeFailure:
        """The failure of entering a function past a limit: the depth guard
        is compared before the step budget."""
        message = DEPTH_EXCEEDED if self.depth >= MAX_EVAL_DEPTH else STEPS_EXCEEDED
        return RuntimeFailure("E-RT-FUEL", message)

    def apply(self, fn, *args):
        """`fn` applied to `args` as a non-tail application applies them:
        the depth guard, then one budget compare per function entered, the
        calls left pending included."""
        depth = self.depth
        if depth >= MAX_EVAL_DEPTH or self.fuel < 0:
            raise self.exhausted()
        if type(fn) is not VClosure:  # a builtin
            return fn(*args)
        self.depth = depth + 1
        try:
            return self.resume(fn.body(fn.env + [*args]))
        finally:
            self.depth = depth

    def resume(self, result):
        """`result`, once the call it leaves pending, if it is one, has run,
        and each call that call leaves in turn. (CPython 3.11 counts calls
        and unconditional backward jumps, not conditional ones, towards
        specializing a function's bytecode; written as `while True`, a loop
        that one call runs for a whole fold is specialized after a few
        iterations.)"""
        while True:
            if type(result) is not list:
                return result
            if self.fuel < 0:
                raise RuntimeFailure("E-RT-FUEL", STEPS_EXCEEDED)
            fn, args = result
            if type(fn) is not VClosure:
                return fn(*args)
            result = fn.body(fn.env + args)

    # ------------------------------------------------------------- compilation
    #
    # `_compile(e, scope, owed, tail, close)` returns code for `e`, to run on
    # a frame laid out by `scope`, and the steps still owed when that code
    # returns. `owed` counts the steps of the nodes entered before `e` that
    # no code has spent yet, and `e` adds its own. A node spends what is
    # owed where the run may fail or enters a function (a non-tail call, a
    # match, a global, which may be forced) and where it `close`s a body or
    # a branch. `tail` marks a node whose value is its closure body's: an
    # application there returns its call pending instead of entering it.

    def _compile(self, e: CoreExpr, scope: dict, owed: int, tail: bool, close: bool):
        return COMPILERS[type(e)](self, e, scope, owed, tail, close)

    def _closing(self, code, owed: int):
        """`code`, a node that cannot fail and enters nothing, where it
        closes a body: code that spends the `owed` steps first."""

        def run(env):
            self.fuel -= owed
            return code(env)

        return run, 0

    def _var(self, e: CVar, scope: dict, owed: int, tail: bool, close: bool):
        code = itemgetter(scope.get(e.name))
        return self._closing(code, owed + 1) if close else (code, owed + 1)

    def _global(self, e: CGlobal, scope: dict, owed: int, tail: bool, close: bool, steps=1):
        # Forcing the global may fail, so what is owed is spent first.
        name, values, owed = e.name, self.globals, owed + steps

        def run(env):
            self.fuel -= owed
            try:
                return values[name]
            except KeyError:  # not forced yet
                return self.global_value(name)

        return run, 0

    def _constant(self, value, owed: int, close: bool):
        def run(env):
            return value

        return self._closing(run, owed + 1) if close else (run, owed + 1)

    def _builtin(self, e: CBuiltin, scope: dict, owed: int, tail: bool, close: bool):
        return self._constant(self.builtins[e.name], owed, close)

    def _lit(self, e: CLit, scope: dict, owed: int, tail: bool, close: bool):
        return self._constant(LITERALS[e.kind](e.value), owed, close)

    def _lam(self, e: CLam, scope: dict, owed: int, tail: bool, close: bool):
        # The closure copies the values its body reads from around it to the
        # first slots of each frame its body runs on.
        free = _free(e.body, scope)
        _bind(inner := {None: 0}, [*free, *(name for name, _ in e.params)])
        body, _ = self._compile(e.body, inner, 0, True, True)
        values = _getter([scope[name] for name in free])

        def run(env):
            return VClosure(body, values(env))

        return self._closing(run, owed + 1) if close else (run, owed + 1)

    def _operands(self, operands: list[CoreExpr], scope: dict, owed: int) -> tuple[list, int]:
        """Code for each of `operands`, in order, and the steps owed after
        the last."""
        codes = []
        for e in operands:
            code, owed = COMPILERS[type(e)](self, e, scope, owed, False, False)
            codes.append(code)
        return codes, owed

    def _app(self, e: CApp, scope: dict, owed: int, tail: bool, close: bool):
        callee, args, field = e.fn, e.args, None
        if type(callee) is CBuiltin:
            # The builtin is known here: one step for the application, one
            # for the builtin node, and no pending call (builtins return).
            return self._builtin_app(callee.name, args, scope, owed + 2, close)
        if type(callee) is CProj:
            if _method_call(e, scope):
                return self._method(e, scope, owed, tail)
            # The projection's field is read by the call, its step owed.
            callee, field, owed = callee.record, callee.field, owed + 1
        return self._call(callee, field, args, scope, owed + 1, tail)

    def _call(self, callee, field, args, scope: dict, owed: int, tail: bool):
        """An application of the value of `callee`, or of its `field` if
        that is not None, to `args`. A global callee is read in place and
        forced on a miss, once what is owed is spent, and an operand that is
        `fst` or `snd` of a variable is read in place as well."""
        name = f = None
        if field is None and type(callee) is CTyApp:  # types apply to globals only
            callee, owed = callee.fn, owed + 1
        if field is None and type(callee) is CGlobal:
            name, first, owed = callee.name, owed + 1, 0
        else:
            f, owed = COMPILERS[type(callee)](self, callee, scope, owed, False, False)
        codes, picks = [], []
        for x in args:
            pick = _pick(x, scope) if type(x) is CApp and len(args) <= 4 else None
            if pick is None:
                code, owed = COMPILERS[type(x)](self, x, scope, owed, False, False)
            else:  # the application's step, the builtin's and the variable's
                code, owed = itemgetter(scope[x.args[0].name]), owed + 3
            codes.append(code)
            picks.append(pick)
        n, values = len(codes), self.globals
        a, b, c, d = [*codes, None, None, None, None][:4]
        ka, kb, kc, kd = [*picks, None, None, None, None][:4]

        def run(env):
            if name is None:
                fn = f(env) if field is None else f(env)[field]
            else:
                self.fuel -= first
                fn = values[name] if name in values else self.global_value(name)
            if n == 1:
                args = [a(env) if ka is None else a(env)[ka]]
            elif n == 2:
                args = [a(env) if ka is None else a(env)[ka], b(env) if kb is None else b(env)[kb]]
            elif n == 3:
                args = [
                    a(env) if ka is None else a(env)[ka],
                    b(env) if kb is None else b(env)[kb],
                    c(env) if kc is None else c(env)[kc],
                ]
            elif n == 4:
                args = [
                    a(env) if ka is None else a(env)[ka],
                    b(env) if kb is None else b(env)[kb],
                    c(env) if kc is None else c(env)[kc],
                    d(env) if kd is None else d(env)[kd],
                ]
            else:
                args = _values(codes, env)
            self.fuel -= owed
            if tail:
                return [fn, args]
            depth = self.depth
            if depth >= MAX_EVAL_DEPTH or self.fuel < 0:
                raise self.exhausted()
            if type(fn) is not VClosure:  # a builtin
                return fn(*args)
            self.depth = depth + 1
            try:
                result = fn.body(fn.env + args)
                return self.resume(result) if type(result) is list else result
            finally:
                self.depth = depth

        return run, 0

    def _method(self, e: CApp, scope: dict, owed: int, tail: bool, arms: Arms | None = None,
                branches: tuple | None = None):
        """`e`, which applies a field of a variable to variables: one node
        reads them all in place, then goes on to the match whose scrutinee
        the call is, given its `arms`, or to the `if` whose condition it is,
        given its else and then `branches`."""
        i, field, owed = scope[e.fn.record.name], e.fn.field, owed + 3 + len(e.args)
        values, fields = _getter([scope[x.name] for x in e.args]), slice(scope[None], None)

        def run(env):
            fn, args = env[i][field], values(env)
            self.fuel -= owed
            if tail:
                return [fn, args]
            depth = self.depth
            if depth >= MAX_EVAL_DEPTH or self.fuel < 0:
                raise self.exhausted()
            if type(fn) is not VClosure:  # a builtin
                value = fn(*args)
            else:
                self.depth = depth + 1
                try:
                    value = fn.body(fn.env + args)
                    if type(value) is list:
                        value = self.resume(value)
                finally:
                    self.depth = depth
            if arms is not None:
                env[fields] = value.args
                return arms[value.name](env)
            return value if branches is None else branches[value](env)

        return run, 0

    def _builtin_app(self, name: str, operands: list[CoreExpr], scope: dict, owed: int,
                     close: bool):
        """Code that applies the builtin `name` to the values of `operands`; a
        builtin can neither fail nor enter a function. One whose result can
        leave its width is `operator`'s function, masked here."""
        codes, owed = self._operands(operands, scope, owed)
        spend, owed = (owed, 0) if close else (0, owed)
        op, mask = WRAPPING.get(name) or (self.builtins[name], 0)
        n = len(codes)
        if n == 1:
            (a,) = codes

            def run(env):
                value = op(a(env))
                if spend:
                    self.fuel -= spend
                return value

        else:  # two: no builtin takes more (`std.BUILTIN_SIGS`), and `core_check` fixes the arity
            (a, b), lit = codes, type(operands[1]) is CLit
            if lit:  # read in place
                b = LITERALS[operands[1].kind](operands[1].value)

            def run(env):
                value = op(a(env), b if lit else b(env))
                if mask:
                    value &= mask
                if spend:
                    self.fuel -= spend
                return value

        return run, owed

    def _dict(self, e: CDict, scope: dict, owed: int, tail: bool, close: bool):
        codes, owed = self._operands(list(e.fields.values()), scope, owed + 1)
        fields = list(zip(e.fields, codes))
        spend, owed = (owed, 0) if close else (0, owed)

        def run(env):
            value = {name: code(env) for name, code in fields}
            if spend:
                self.fuel -= spend
            return value

        return run, owed

    def _proj(self, e: CProj, scope: dict, owed: int, tail: bool, close: bool):
        record, owed = self._compile(e.record, scope, owed + 1, False, False)
        field = e.field
        spend, owed = (owed, 0) if close else (0, owed)

        def run(env):
            value = record(env)[field]
            if spend:
                self.fuel -= spend
            return value

        return run, owed

    def _ctor(self, e: CCtor, scope: dict, owed: int, tail: bool, close: bool):
        data, name, operands = e.data, e.ctor, e.args
        if not operands:  # one value serves every evaluation
            value = _new(VCtor)
            value.data, value.name, value.args = data, name, ()
            return self._constant(value, owed, close)
        pair = len(operands) == 1 and type(operands[0]) is CTuple  # built in place
        if pair:
            operands, owed = [operands[0].first, operands[0].second], owed + 1
        codes, owed = self._operands(operands, scope, owed + 1)
        spend, owed = (owed, 0) if close else (0, owed)
        n = len(codes)
        a, b = [*codes, None][:2]

        def run(env):
            value = _new(VCtor)
            value.data, value.name = data, name
            if pair:
                value.args = ((a(env), b(env)),)
            elif n == 1:
                value.args = (a(env),)
            elif n == 2:
                value.args = (a(env), b(env))
            else:
                value.args = tuple(_values(codes, env))
            if spend:
                self.fuel -= spend
            return value

        return run, owed

    def _tuple(self, e: CTuple, scope: dict, owed: int, tail: bool, close: bool):
        (a, b), owed = self._operands([e.first, e.second], scope, owed + 1)
        spend, owed = (owed, 0) if close else (0, owed)

        def run(env):
            value = a(env), b(env)
            if spend:
                self.fuel -= spend
            return value

        return run, owed

    def _match(self, e: CMatch, scope: dict, owed: int, tail: bool, close: bool):
        # The value's fields go to the first free slot, whichever arm takes
        # them, for its binders; only the first arm that can take a value is
        # compiled. Each arm spends its own steps: only here is it known.
        arms = Arms()
        for ctor, binders, body in e.arms:
            if ctor not in arms and None not in arms:
                replaced = _bind(scope, binders)
                arms[ctor], _ = self._compile(body, scope, 0, tail, True)
                restore(scope, replaced)
        if _method_call(e.scrutinee, scope):
            return self._method(e.scrutinee, scope, owed + 1, False, arms)
        scrutinee, owed = self._compile(e.scrutinee, scope, owed + 1, False, False)
        fields = slice(scope[None], None)

        def run(env):
            scrut = scrutinee(env)
            if owed:
                self.fuel -= owed
            env[fields] = scrut.args
            return arms[scrut.name](env)

        return run, 0

    def _let(self, e: CLet, scope: dict, owed: int, tail: bool, close: bool):
        """A chain of lets, each the body of the one before, as one node."""
        lets, replaced = [], []
        while type(e) is CLet:
            bound, owed = self._compile(e.bound, scope, owed + 1, False, False)
            lets.append((bound, slice(scope[None], None)))
            replaced += _bind(scope, [e.name])
            e = e.body
        body, owed = self._compile(e, scope, owed, tail, close)
        restore(scope, replaced)

        def run(env):
            for bound, slot in lets:
                env[slot] = (bound(env),)
            return body(env)

        return run, owed

    def _if(self, e: CIf, scope: dict, owed: int, tail: bool, close: bool):
        # Each branch spends what the condition leaves owed, and its own.
        if _method_call(e.cond, scope):
            branches = tuple(self._compile(x, scope, 0, tail, True)[0] for x in (e.orelse, e.then))
            return self._method(e.cond, scope, owed + 1, False, None, branches)
        cond, owed = self._compile(e.cond, scope, owed + 1, False, False)
        then, _ = self._compile(e.then, scope, owed, tail, True)
        orelse, _ = self._compile(e.orelse, scope, owed, tail, True)

        def run(env):
            return then(env) if cond(env) else orelse(env)

        return run, 0


COMPILERS = {
    CVar: Interp._var,
    CGlobal: Interp._global,
    CBuiltin: Interp._builtin,
    CLit: Interp._lit,
    CLam: Interp._lam,
    # The elaborator applies types only to a global, in one step with it.
    CTyApp: lambda self, e, scope, owed, tail, close: self._global(
        e.fn, scope, owed, tail, close, 2
    ),
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
