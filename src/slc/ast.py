"""Surface abstract syntax. One ModuleAST per source file.

Type and constraint expressions stay purely syntactic here; name resolution
into semantic terms happens later, so the printer can reproduce the source
shape exactly.
"""

from __future__ import annotations

from dataclasses import dataclass

from .diagnostics import Span


# ---------------------------------------------------------------- types


@dataclass(frozen=True)
class TypeExprAST:
    span: Span


@dataclass(frozen=True)
class TName(TypeExprAST):
    """A possibly projected name: `U64`, `a`, `A.Element`, `mb.Key`."""

    base: str
    args: tuple[TypeExprAST, ...]  # applied type arguments on the base
    projections: tuple[str, ...]  # trailing `.Member` selections


@dataclass(frozen=True)
class TTuple(TypeExprAST):
    items: tuple[TypeExprAST, ...]  # exactly two; pairs only


@dataclass(frozen=True)
class TUnit(TypeExprAST):
    pass


@dataclass(frozen=True)
class TFn(TypeExprAST):
    params: tuple[TypeExprAST, ...]
    ret: TypeExprAST


@dataclass(frozen=True)
class TProj(TypeExprAST):
    """Projection on a non-name base, e.g. `Option[a].Member`."""

    base: TypeExprAST
    member: str


# ---------------------------------------------------------------- constraints


@dataclass(frozen=True)
class ConstraintAST:
    span: Span


@dataclass(frozen=True)
class ConfAST(ConstraintAST):
    concept: str
    args: tuple[TypeExprAST, ...]


@dataclass(frozen=True)
class EqAST(ConstraintAST):
    lhs: TypeExprAST
    rhs: TypeExprAST


# ---------------------------------------------------------------- expressions


@dataclass(frozen=True)
class ExprAST:
    span: Span


@dataclass(frozen=True)
class EVar(ExprAST):
    name: str


@dataclass(frozen=True)
class EInt(ExprAST):
    value: int
    width: str | None  # "U64" | "U8" | None when unannotated
    lexeme: str


@dataclass(frozen=True)
class EFloat(ExprAST):
    lexeme: str  # opaque; only ever carried around and shown


@dataclass(frozen=True)
class EString(ExprAST):
    value: str


@dataclass(frozen=True)
class EBool(ExprAST):
    value: bool


@dataclass(frozen=True)
class EUnit(ExprAST):
    pass


@dataclass(frozen=True)
class EApp(ExprAST):
    fn: ExprAST
    args: tuple[ExprAST, ...]


@dataclass(frozen=True)
class ELambda(ExprAST):
    params: tuple[tuple[str, TypeExprAST | None], ...]
    body: ExprAST


@dataclass(frozen=True)
class EMatchArm:
    span: Span
    ctor: str | None  # None is the `_` wildcard
    binders: tuple[str, ...]
    body: ExprAST


@dataclass(frozen=True)
class EMatch(ExprAST):
    scrutinee: ExprAST
    arms: tuple[EMatchArm, ...]

    def __post_init__(self):
        assert self.arms, "match arms non-empty"


@dataclass(frozen=True)
class ELet(ExprAST):
    name: str  # "_" for expression statements
    annot: TypeExprAST | None
    bound: ExprAST
    body: ExprAST


@dataclass(frozen=True)
class ETuple(ExprAST):
    items: tuple[ExprAST, ...]  # exactly two


@dataclass(frozen=True)
class EIf(ExprAST):
    cond: ExprAST
    then: ExprAST
    orelse: ExprAST


@dataclass(frozen=True)
class EAnnot(ExprAST):
    expr: ExprAST
    annot: TypeExprAST


# ---------------------------------------------------------------- declarations


@dataclass(frozen=True)
class ReqSigAST:
    span: Span
    name: str
    params: tuple[tuple[str, TypeExprAST], ...]
    ret: TypeExprAST


@dataclass(frozen=True)
class DeclAST:
    span: Span


@dataclass(frozen=True)
class ConceptAST(DeclAST):
    name: str
    params: tuple[str, ...]  # Self first, parser-enforced
    supers: tuple[ConstraintAST, ...]
    assoc_names: tuple[str, ...]
    requirements: tuple[ReqSigAST, ...]


@dataclass(frozen=True)
class AssocBindAST:
    span: Span
    member: str
    rhs: TypeExprAST


@dataclass(frozen=True)
class FunAST(DeclAST):
    name: str
    typarams: tuple[str, ...]
    params: tuple[tuple[str, TypeExprAST], ...]
    ret: TypeExprAST
    context: tuple[ConstraintAST, ...]
    body: ExprAST


@dataclass(frozen=True)
class ModelAST(DeclAST):
    name: str | None
    concept: str
    head: tuple[TypeExprAST, ...]
    context: tuple[ConstraintAST, ...]
    assoc_binds: tuple[AssocBindAST, ...]
    bodies: tuple[FunAST, ...]  # requirement implementations, no typarams


@dataclass(frozen=True)
class CtorAST:
    span: Span
    name: str
    fields: tuple[TypeExprAST, ...]


@dataclass(frozen=True)
class DataAST(DeclAST):
    name: str
    params: tuple[str, ...]
    ctors: tuple[CtorAST, ...]


@dataclass(frozen=True)
class ModuleAST:
    span: Span
    name: str
    imports: tuple[str, ...]
    decls: tuple[DeclAST, ...]
    import_spans: tuple[Span, ...] = ()
