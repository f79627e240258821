"""Call-by-value evaluation of core programs.

Machine integers wrap: U64 arithmetic is modulo 2^64, U8 modulo 2^8. `show`
renders unsigned decimal with no padding. Every evaluation step burns fuel;
exhausting the budget (or recursing past the interpreter's own depth guard)
reports E-RT-FUEL so divergent programs stay total for callers.
"""

from __future__ import annotations

from dataclasses import dataclass

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
    CTyLam,
    CVar,
)
from .diagnostics import Diagnostic, Span

MASK64 = (1 << 64) - 1
MASK8 = (1 << 8) - 1

DEFAULT_FUEL = 10_000_000
MAX_EVAL_DEPTH = 20_000


class RuntimeFailure(Exception):
    def __init__(self, code: str, message: str):
        self.code = code
        self.message = message
        super().__init__(message)

    def to_diagnostic(self) -> Diagnostic:
        return Diagnostic(self.code, self.message, Span("<runtime>", (1, 1), (1, 1)))


@dataclass
class VU64:
    value: int


@dataclass
class VU8:
    value: int


@dataclass
class VBool:
    value: bool


@dataclass
class VStr:
    value: str


@dataclass
class VF64:
    lexeme: str  # opaque; never computed with


@dataclass
class VUnit:
    pass


@dataclass
class VTuple:
    first: object
    second: object


@dataclass
class VCtor:
    data: str
    name: str
    args: list


@dataclass
class VClosure:
    params: list[str]
    body: CoreExpr
    env: dict

    def __repr__(self):
        return f"<closure/{len(self.params)}>"


@dataclass
class VDict:
    tag: str  # originating model; distinct models yield distinct dictionaries
    fields: dict

    def __repr__(self):
        return f"<dict {self.tag}>"


@dataclass
class VBuiltin:
    name: str


# Literal kind -> value of the literal's payload.
LITERALS = {
    "u64": lambda v: VU64(v & MASK64),
    "u8": lambda v: VU8(v & MASK8),
    "bool": VBool,
    "string": VStr,
    "f64": VF64,
    "unit": lambda _v: VUnit(),
}


class Interp:
    def __init__(self, program: CoreProgram, fuel: int = DEFAULT_FUEL):
        self.program = program
        self.fuel = fuel
        self.depth = 0
        self.transcript: list[str] = []
        self.globals: dict[str, object] = {}
        self._forcing: set[str] = set()

    # ------------------------------------------------------------- plumbing

    def burn(self):
        self.fuel -= 1
        if self.fuel < 0:
            raise RuntimeFailure("E-RT-FUEL", "evaluation step budget exceeded")

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
        self.burn()
        self.depth += 1
        if self.depth > MAX_EVAL_DEPTH:
            self.depth -= 1
            raise RuntimeFailure(
                "E-RT-FUEL", "evaluation budget exceeded (interpreter recursion depth)"
            )
        try:
            return self._eval(e, env)
        finally:
            self.depth -= 1

    def _eval(self, e: CoreExpr, env: dict):
        if isinstance(e, CVar):
            try:
                return env[e.name]
            except KeyError:
                raise RuntimeFailure("E-RT-MATCH", f"unbound variable {e.name}") from None
        if isinstance(e, CGlobal):
            return self.global_value(e.name)
        if isinstance(e, CBuiltin):
            return VBuiltin(e.name)
        if isinstance(e, CLit):
            return LITERALS[e.kind](e.value)
        if isinstance(e, CLam):
            return VClosure([n for n, _ in e.params], e.body, env)
        if isinstance(e, (CTyLam,)):
            return self.eval(e.body, env)
        if isinstance(e, CTyApp):
            return self.eval(e.fn, env)
        if isinstance(e, CApp):
            fn = self.eval(e.fn, env)
            args = [self.eval(a, env) for a in e.args]
            return self.apply(fn, args)
        if isinstance(e, CDict):
            fields = {name: self.eval(expr, env) for name, expr in e.fields.items()}
            return VDict(e.tag, fields)
        if isinstance(e, CProj):
            rec = self.eval(e.record, env)
            if not isinstance(rec, VDict) or e.field not in rec.fields:
                raise RuntimeFailure("E-RT-MATCH", f"bad projection .{e.field}")
            return rec.fields[e.field]
        if isinstance(e, CCtor):
            return VCtor(e.data, e.ctor, [self.eval(a, env) for a in e.args])
        if isinstance(e, CMatch):
            scrut = self.eval(e.scrutinee, env)
            if not isinstance(scrut, VCtor):
                raise RuntimeFailure("E-RT-MATCH", "match on a non-constructor value")
            for ctor, binders, body in e.arms:
                if ctor is None:
                    return self.eval(body, env)
                if ctor == scrut.name:
                    inner = dict(env)
                    for b, v in zip(binders, scrut.args):
                        if b != "_":
                            inner[b] = v
                    return self.eval(body, inner)
            raise RuntimeFailure(
                "E-RT-MATCH", f"non-exhaustive match: no arm for {scrut.name}"
            )
        if isinstance(e, CLet):
            bound = self.eval(e.bound, env)
            inner = dict(env)
            if e.name != "_":
                inner[e.name] = bound
            else:
                inner = env
            return self.eval(e.body, inner)
        if isinstance(e, CTuple):
            return VTuple(self.eval(e.first, env), self.eval(e.second, env))
        if isinstance(e, CIf):
            cond = self.eval(e.cond, env)
            if not isinstance(cond, VBool):
                raise RuntimeFailure("E-RT-MATCH", "if condition is not a boolean")
            return self.eval(e.then if cond.value else e.orelse, env)
        raise AssertionError(type(e))

    def apply(self, fn, args: list):
        if isinstance(fn, VClosure):
            if len(fn.params) != len(args):
                raise RuntimeFailure(
                    "E-RT-MATCH",
                    f"closure expects {len(fn.params)} arguments, got {len(args)}",
                )
            inner = dict(fn.env)
            inner.update(zip(fn.params, args))
            return self.eval(fn.body, inner)
        if isinstance(fn, VBuiltin):
            return self.builtin(fn.name, args)
        raise RuntimeFailure("E-RT-MATCH", "application of a non-function value")

    # ------------------------------------------------------------- builtins

    def builtin(self, name: str, args: list):
        def u64(v) -> int:
            if not isinstance(v, VU64):
                raise RuntimeFailure("E-RT-MATCH", f"{name}: expected a U64")
            return v.value

        def u8(v) -> int:
            if not isinstance(v, VU8):
                raise RuntimeFailure("E-RT-MATCH", f"{name}: expected a U8")
            return v.value

        if name == "band":
            return VU64(u64(args[0]) & u64(args[1]))
        if name == "bor":
            return VU64(u64(args[0]) | u64(args[1]))
        if name == "shl":
            shift = u64(args[1])
            return VU64((u64(args[0]) << shift) & MASK64 if shift < 64 else 0)
        if name == "shr":
            shift = u64(args[1])
            return VU64(u64(args[0]) >> shift if shift < 64 else 0)
        if name == "add64":
            return VU64((u64(args[0]) + u64(args[1])) & MASK64)
        if name == "sub64":
            return VU64((u64(args[0]) - u64(args[1])) & MASK64)
        if name == "mul64":
            return VU64((u64(args[0]) * u64(args[1])) & MASK64)
        if name == "add8":
            return VU8((u8(args[0]) + u8(args[1])) & MASK8)
        if name == "sub8":
            return VU8((u8(args[0]) - u8(args[1])) & MASK8)
        if name == "mul8":
            return VU8((u8(args[0]) * u8(args[1])) & MASK8)
        if name == "eq64":
            return VBool(u64(args[0]) == u64(args[1]))
        if name == "lt64":
            return VBool(u64(args[0]) < u64(args[1]))
        if name == "le64":
            return VBool(u64(args[0]) <= u64(args[1]))
        if name == "eq8":
            return VBool(u8(args[0]) == u8(args[1]))
        if name == "lt8":
            return VBool(u8(args[0]) < u8(args[1]))
        if name == "le8":
            return VBool(u8(args[0]) <= u8(args[1]))
        if name == "trunc8":
            return VU8(u64(args[0]) & MASK8)
        if name == "extend64":
            return VU64(u8(args[0]))
        if name == "concat":
            a, b = args
            if not (isinstance(a, VStr) and isinstance(b, VStr)):
                raise RuntimeFailure("E-RT-MATCH", "concat: expected strings")
            return VStr(a.value + b.value)
        if name == "show64":
            return VStr(str(u64(args[0])))
        if name == "show8":
            return VStr(str(u8(args[0])))
        if name == "showbool":
            if not isinstance(args[0], VBool):
                raise RuntimeFailure("E-RT-MATCH", "showbool: expected a Bool")
            return VStr("true" if args[0].value else "false")
        if name == "showf64":
            if not isinstance(args[0], VF64):
                raise RuntimeFailure("E-RT-MATCH", "showf64: expected an F64")
            return VStr(args[0].lexeme)
        if name == "not":
            if not isinstance(args[0], VBool):
                raise RuntimeFailure("E-RT-MATCH", "not: expected a Bool")
            return VBool(not args[0].value)
        if name == "print":
            if not isinstance(args[0], VStr):
                raise RuntimeFailure("E-RT-MATCH", "print: expected a String")
            self.transcript.append(args[0].value)
            return VUnit()
        if name == "fst":
            if not isinstance(args[0], VTuple):
                raise RuntimeFailure("E-RT-MATCH", "fst: expected a pair")
            return args[0].first
        if name == "snd":
            if not isinstance(args[0], VTuple):
                raise RuntimeFailure("E-RT-MATCH", "snd: expected a pair")
            return args[0].second
        raise RuntimeFailure("E-RT-MATCH", f"unknown builtin {name}")


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
        return Diagnostic(
            "E-RT-FUEL",
            "evaluation budget exceeded (interpreter recursion depth)",
            Span("<runtime>", (1, 1), (1, 1)),
        )
    return value, interp.transcript
