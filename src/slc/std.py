"""The synthetic `std` module: builtin types, data declarations, and functions.

Every user module implicitly imports `std`. Builtin functions are primitive
operations of the evaluator; their signatures are declared here so the
checker and the core type checker can agree on them.
"""

from __future__ import annotations

from .decls import CheckedModule, CtorDecl, DataDecl, Index
from .diagnostics import Span
from .types import (
    BOOL,
    F64,
    STD,
    STRING,
    U64,
    U8,
    UNIT,
    Var,
    fresh_uid,
    list_type,
    pair_type,
)

_SPAN = Span.at("<std>")


def _var(name: str) -> Var:
    return Var(name, fresh_uid())


def _make_std() -> CheckedModule:
    std = CheckedModule(name=STD, imports=[], span=_SPAN)

    a = _var("a")
    std.datas["Option"] = DataDecl(
        module=STD,
        name="Option",
        params=[a],
        ctors=[
            CtorDecl("None", [], _SPAN),
            CtorDecl("Some", [a], _SPAN),
        ],
        span=_SPAN,
    )
    b = _var("a")
    std.datas["List"] = DataDecl(
        module=STD,
        name="List",
        params=[b],
        ctors=[
            CtorDecl("Nil", [], _SPAN),
            CtorDecl("Cons", [b, list_type(b)], _SPAN),
        ],
        span=_SPAN,
    )
    return std


STD_MODULE = _make_std()


def program_index() -> Index:
    """A new declaration index for one program, holding std's data types."""
    index = Index()
    for data in STD_MODULE.datas.values():
        index.add_data(data)
    return index


# name -> (type variables, parameter types, return type)
def _builtin_sigs() -> dict[str, tuple[list[Var], list, object]]:
    sigs: dict[str, tuple[list[Var], list, object]] = {}

    def mono(name, params, ret):
        sigs[name] = ([], list(params), ret)

    for name in ("band", "bor", "shl", "shr", "add64", "sub64", "mul64"):
        mono(name, [U64, U64], U64)
    for name in ("add8", "sub8", "mul8"):
        mono(name, [U8, U8], U8)
    for name in ("eq64", "lt64", "le64"):
        mono(name, [U64, U64], BOOL)
    for name in ("eq8", "lt8", "le8"):
        mono(name, [U8, U8], BOOL)
    mono("trunc8", [U64], U8)
    mono("extend64", [U8], U64)
    mono("concat", [STRING, STRING], STRING)
    mono("show64", [U64], STRING)
    mono("show8", [U8], STRING)
    mono("showbool", [BOOL], STRING)
    mono("showf64", [F64], STRING)
    mono("not", [BOOL], BOOL)
    mono("print", [STRING], UNIT)

    a, b = _var("a"), _var("b")
    sigs["fst"] = ([a, b], [pair_type(a, b)], a)
    a2, b2 = _var("a"), _var("b")
    sigs["snd"] = ([a2, b2], [pair_type(a2, b2)], b2)
    return sigs


BUILTIN_SIGS = _builtin_sigs()
