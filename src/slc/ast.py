"""Surface abstract syntax. One ModuleAST per source file.

Type and constraint expressions stay purely syntactic here; name resolution
into semantic terms happens later, so the printer can reproduce the source
shape exactly.
"""

from __future__ import annotations

from .diagnostics import Record, Span


class Node(Record):
    """A syntax node, compared by value; its first slot is its source span."""

    __slots__ = ("span",)
    def __init__(self, span: Span):
        self.span = span


# ---------------------------------------------------------------- types


class TypeExprAST(Node):
    __slots__ = ()


class TName(TypeExprAST):
    """A possibly projected name: `U64`, `a`, `A.Element`, `mb.Key`."""

    # args: applied type arguments on the base; projections: trailing `.Member` selections
    __slots__ = ("base", "args", "projections")
    def __init__(self, span: Span, base: str, args: tuple[TypeExprAST, ...],
                 projections: tuple[str, ...]):
        self.span, self.base, self.args, self.projections = span, base, args, projections


class TTuple(TypeExprAST):
    # items: exactly two; pairs only
    __slots__ = ("items",)
    def __init__(self, span: Span, items: tuple[TypeExprAST, ...]):
        self.span, self.items = span, items


class TUnit(TypeExprAST):
    __slots__ = ()


class TFn(TypeExprAST):
    __slots__ = ("params", "ret")
    def __init__(self, span: Span, params: tuple[TypeExprAST, ...], ret: TypeExprAST):
        self.span, self.params, self.ret = span, params, ret


class TProj(TypeExprAST):
    """Projection on a non-name base, e.g. `Option[a].Member`."""

    __slots__ = ("base", "member")
    def __init__(self, span: Span, base: TypeExprAST, member: str):
        self.span, self.base, self.member = span, base, member


# ---------------------------------------------------------------- constraints


class ConstraintAST(Node):
    __slots__ = ()


class ConfAST(ConstraintAST):
    __slots__ = ("concept", "args")
    def __init__(self, span: Span, concept: str, args: tuple[TypeExprAST, ...]):
        self.span, self.concept, self.args = span, concept, args


class EqAST(ConstraintAST):
    __slots__ = ("lhs", "rhs")
    def __init__(self, span: Span, lhs: TypeExprAST, rhs: TypeExprAST):
        self.span, self.lhs, self.rhs = span, lhs, rhs


# ---------------------------------------------------------------- expressions


class ExprAST(Node):
    __slots__ = ()


class EVar(ExprAST):
    __slots__ = ("name",)
    def __init__(self, span: Span, name: str):
        self.span, self.name = span, name


class EInt(ExprAST):
    # width: "U64" | "U8" | None when unannotated
    __slots__ = ("value", "width", "lexeme")
    def __init__(self, span: Span, value: int, width: str | None, lexeme: str):
        self.span, self.value, self.width, self.lexeme = span, value, width, lexeme


class EFloat(ExprAST):
    # lexeme: opaque; only ever carried around and shown
    __slots__ = ("lexeme",)
    def __init__(self, span: Span, lexeme: str):
        self.span, self.lexeme = span, lexeme


class EString(ExprAST):
    __slots__ = ("value",)
    def __init__(self, span: Span, value: str):
        self.span, self.value = span, value


class EBool(ExprAST):
    __slots__ = ("value",)
    def __init__(self, span: Span, value: bool):
        self.span, self.value = span, value


class EUnit(ExprAST):
    __slots__ = ()


class EApp(ExprAST):
    __slots__ = ("fn", "args")
    def __init__(self, span: Span, fn: ExprAST, args: tuple[ExprAST, ...]):
        self.span, self.fn, self.args = span, fn, args


class ELambda(ExprAST):
    __slots__ = ("params", "body")
    def __init__(self, span: Span, params: tuple[tuple[str, TypeExprAST | None], ...],
                 body: ExprAST):
        self.span, self.params, self.body = span, params, body


class EMatchArm(Node):
    # ctor: None is the `_` wildcard
    __slots__ = ("ctor", "binders", "body")
    def __init__(self, span: Span, ctor: str | None, binders: tuple[str, ...], body: ExprAST):
        self.span, self.ctor, self.binders, self.body = span, ctor, binders, body


class EMatch(ExprAST):
    __slots__ = ("scrutinee", "arms")
    def __init__(self, span: Span, scrutinee: ExprAST, arms: tuple[EMatchArm, ...]):
        self.span, self.scrutinee, self.arms = span, scrutinee, arms
        assert arms, "match arms non-empty"


class ELet(ExprAST):
    # name: "_" for expression statements
    __slots__ = ("name", "annot", "bound", "body")
    def __init__(self, span: Span, name: str, annot: TypeExprAST | None, bound: ExprAST,
                 body: ExprAST):
        self.span, self.name, self.annot, self.bound, self.body = span, name, annot, bound, body


class ETuple(ExprAST):
    # items: exactly two
    __slots__ = ("items",)
    def __init__(self, span: Span, items: tuple[ExprAST, ...]):
        self.span, self.items = span, items


class EIf(ExprAST):
    __slots__ = ("cond", "then", "orelse")
    def __init__(self, span: Span, cond: ExprAST, then: ExprAST, orelse: ExprAST):
        self.span, self.cond, self.then, self.orelse = span, cond, then, orelse


class EAnnot(ExprAST):
    __slots__ = ("expr", "annot")
    def __init__(self, span: Span, expr: ExprAST, annot: TypeExprAST):
        self.span, self.expr, self.annot = span, expr, annot


# ---------------------------------------------------------------- declarations


class ReqSigAST(Node):
    __slots__ = ("name", "params", "ret")
    def __init__(self, span: Span, name: str, params: tuple[tuple[str, TypeExprAST], ...],
                 ret: TypeExprAST):
        self.span, self.name, self.params, self.ret = span, name, params, ret


class DeclAST(Node):
    __slots__ = ()


class ConceptAST(DeclAST):
    # params: Self first, parser-enforced
    __slots__ = ("name", "params", "supers", "assoc_names", "requirements")
    def __init__(self, span: Span, name: str, params: tuple[str, ...],
                 supers: tuple[ConstraintAST, ...], assoc_names: tuple[str, ...],
                 requirements: tuple[ReqSigAST, ...]):
        self.span, self.name, self.params, self.supers = span, name, params, supers
        self.assoc_names, self.requirements = assoc_names, requirements


class AssocBindAST(Node):
    __slots__ = ("member", "rhs")
    def __init__(self, span: Span, member: str, rhs: TypeExprAST):
        self.span, self.member, self.rhs = span, member, rhs


class FunAST(DeclAST):
    __slots__ = ("name", "typarams", "params", "ret", "context", "body")
    def __init__(self, span: Span, name: str, typarams: tuple[str, ...],
                 params: tuple[tuple[str, TypeExprAST], ...], ret: TypeExprAST,
                 context: tuple[ConstraintAST, ...], body: ExprAST):
        self.span, self.name, self.typarams, self.params = span, name, typarams, params
        self.ret, self.context, self.body = ret, context, body


class ModelAST(DeclAST):
    # bodies: requirement implementations, no typarams
    __slots__ = ("name", "concept", "head", "context", "assoc_binds", "bodies")
    def __init__(self, span: Span, name: str | None, concept: str, head: tuple[TypeExprAST, ...],
                 context: tuple[ConstraintAST, ...], assoc_binds: tuple[AssocBindAST, ...],
                 bodies: tuple[FunAST, ...]):
        self.span, self.name, self.concept, self.head = span, name, concept, head
        self.context, self.assoc_binds, self.bodies = context, assoc_binds, bodies


class CtorAST(Node):
    __slots__ = ("name", "fields")
    def __init__(self, span: Span, name: str, fields: tuple[TypeExprAST, ...]):
        self.span, self.name, self.fields = span, name, fields


class DataAST(DeclAST):
    __slots__ = ("name", "params", "ctors")
    def __init__(self, span: Span, name: str, params: tuple[str, ...], ctors: tuple[CtorAST, ...]):
        self.span, self.name, self.params, self.ctors = span, name, params, ctors


class ModuleAST(Node):
    __slots__ = ("name", "imports", "decls", "import_spans")
    def __init__(self, span: Span, name: str, imports: tuple[str, ...], decls: tuple[DeclAST, ...],
                 import_spans: tuple[Span, ...] = ()):
        self.span, self.name, self.imports, self.decls = span, name, imports, decls
        self.import_spans = import_spans
