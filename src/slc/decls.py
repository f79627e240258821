"""Checked declarations, the typed expression IR, and model worlds."""

from __future__ import annotations

from .diagnostics import Span
from .types import (
    Assoc,
    Con,
    ConstraintTerm,
    Substitution,
    TypeTerm,
    Var,
    match_many,
    outermost_con,
    render,
    render_constraint,
)


class ReqSig:
    __slots__ = ("name", "params", "ret", "span")
    def __init__(self, name: str, params: list[tuple[str, TypeTerm]], ret: TypeTerm, span: Span):
        self.name, self.params, self.ret, self.span = name, params, ret, span


class ConceptDecl:
    # params: Self first; supers: over params
    __slots__ = (
        "module", "name", "params", "supers", "assoc_names", "requirements", "req_order", "span",
    )
    def __init__(self, module: str, name: str, params: list[Var], supers: list[ConstraintTerm],
                 assoc_names: list[str], requirements: dict[str, ReqSig], req_order: list[str],
                 span: Span):
        self.module, self.name, self.params, self.supers = module, name, params, supers
        self.assoc_names, self.requirements, self.req_order = assoc_names, requirements, req_order
        self.span = span

    @property
    def id(self) -> str:
        return f"{self.module}.{self.name}"

    def instantiate(self, subjects) -> Substitution:
        assert len(subjects) == len(self.params)
        return Substitution({v.uid: s for v, s in zip(self.params, subjects)})


class ModelDecl:
    # index: position among the module's models, in declaration order; concept: concept id
    # vars: head variables, first-occurrence order
    __slots__ = (
        "module", "index", "name", "concept", "head", "vars", "context", "assoc", "span", "bodies",
        "superclass_resolutions", "body_goal_records",
    )
    def __init__(self, module: str, index: int, name: str | None, concept: str,
                 head: list[TypeTerm], vars: list[Var], context: list[ConstraintTerm],
                 assoc: dict[str, TypeTerm], span: Span):
        self.module, self.index, self.name, self.concept = module, index, name, concept
        self.head, self.vars, self.context, self.assoc, self.span = head, vars, context, assoc, span
        self.bodies, self.superclass_resolutions, self.body_goal_records = {}, [], {}

    @property
    def uid(self) -> str:
        return f"{self.module}#{self.index}"

    @property
    def path(self) -> str | None:
        return f"{self.module}.{self.name}" if self.name else None

    @property
    def display(self) -> str:
        return self.path or f"{self.module}.<model {self.index}>"

    def match(self, targets) -> Substitution | None:
        """Match the head as declared onto `targets`, by head only.

        The result maps the model's own variables, so it applies directly to
        `context`, `vars` and `assoc`. Targets may mention those variables;
        they stay rigid there, and `Substitution.apply` makes one pass, so
        a ↦ Option[a] stays that.
        """
        return match_many(zip(self.head, targets))


class GoalRecord:
    # trace: resolver TraceNode; owner: "fn:name" | "model:uid.req" | None
    __slots__ = ("site", "constraint", "trace", "resolution", "owner")
    def __init__(self, site: Span, constraint: ConstraintTerm, trace: object,
                 resolution: object | None, owner: str | None):
        self.site, self.constraint, self.trace = site, constraint, trace
        self.resolution, self.owner = resolution, owner


class FunDecl:
    __slots__ = (
        "module", "name", "typarams", "params", "ret", "context", "span", "body", "goal_records",
    )
    def __init__(self, module: str, name: str, typarams: list[Var],
                 params: list[tuple[str, TypeTerm]], ret: TypeTerm, context: list[ConstraintTerm],
                 span: Span, body: "TExpr | None" = None):
        self.module, self.name, self.typarams, self.params = module, name, typarams, params
        self.ret, self.context, self.span, self.body = ret, context, span, body
        self.goal_records = []

    @property
    def id(self) -> str:
        return f"{self.module}.{self.name}"

    @property
    def is_generic(self) -> bool:
        return bool(self.typarams) or bool(self.context)


class CtorDecl:
    __slots__ = ("name", "fields", "span")
    def __init__(self, name: str, fields: list[TypeTerm], span: Span):
        self.name, self.fields, self.span = name, fields, span


class DataDecl:
    __slots__ = ("module", "name", "params", "ctors", "span")
    def __init__(self, module: str, name: str, params: list[Var], ctors: list[CtorDecl],
                 span: Span):
        self.module, self.name, self.params, self.ctors = module, name, params, ctors
        self.span = span

    @property
    def id(self) -> str:
        return f"{self.module}.{self.name}"

    def ctor(self, name: str) -> CtorDecl | None:
        for c in self.ctors:
            if c.name == name:
                return c
        return None


class CheckedModule:
    # world: the models visible here, its own last; set by sema
    __slots__ = (
        "name", "imports", "concepts", "models", "funs", "datas", "goal_log", "span", "world",
    )
    def __init__(self, name: str, imports: list[str], span: Span | None = None,
                 world: ModelWorld | None = None):
        self.name, self.imports, self.concepts, self.models, self.funs = name, imports, {}, [], {}
        self.datas, self.goal_log, self.span, self.world = {}, [], span, world

    def signature_digest(self) -> str:
        """Canonical rendering used to compare re-checked modules."""
        parts = [f"module {self.name} imports={','.join(sorted(self.imports))}"]
        for cid in sorted(self.concepts):
            c = self.concepts[cid]
            sups = ";".join(sorted(render_constraint(s) for s in c.supers))
            reqs = ";".join(
                f"{r}:{_sig_digest(c.requirements[r])}" for r in c.req_order
            )
            parts.append(
                f"concept {c.name}[{','.join(v.name for v in c.params)}]"
                f" supers[{sups}] assoc[{','.join(c.assoc_names)}] reqs[{reqs}]"
            )
        for m in self.models:
            ctx = ";".join(render_constraint(c) for c in m.context)
            binds = ";".join(f"{k}={render(v)}" for k, v in sorted(m.assoc.items()))
            parts.append(
                f"model {m.name or '_'}:{m.concept}[{','.join(render(h) for h in m.head)}]"
                f" where[{ctx}] binds[{binds}] reqs[{','.join(sorted(m.bodies))}]"
            )
        for fname in sorted(self.funs):
            f = self.funs[fname]
            ctx = ";".join(render_constraint(c) for c in f.context)
            params = ",".join(render(t) for _, t in f.params)
            parts.append(
                f"fn {f.name}[{','.join(v.name for v in f.typarams)}]({params})"
                f"->{render(f.ret)} where[{ctx}]"
            )
        for dname in sorted(self.datas):
            d = self.datas[dname]
            ctors = ";".join(
                f"{c.name}({','.join(render(t) for t in c.fields)})" for c in d.ctors
            )
            parts.append(f"data {d.name}[{','.join(v.name for v in d.params)}] {ctors}")
        return "\n".join(parts)


def _sig_digest(sig: ReqSig) -> str:
    return f"({','.join(render(t) for _, t in sig.params)})->{render(sig.ret)}"


def bind_assocs(
    concept: str, subjects: tuple, bindings: dict[str, TypeTerm], t: TypeTerm
) -> TypeTerm:
    """Replace the projections `subjects.member` of `concept` in `t` with
    `bindings[member]`. A projection already tagged with a model path names
    its model and is left alone."""

    def go(x: TypeTerm) -> TypeTerm:
        if not x.has_assoc:
            return x
        x = x.map(go)
        if isinstance(x, Assoc) and (x.concept, x.subjects, x.model_path) == (concept, subjects, None):
            return bindings.get(x.member, x)
        return x

    return go(t)


# ---------------------------------------------------------------- model world


class ModelWorld:
    """The models visible at some point, in deterministic order.

    Order is (module topological index, declaration index). When `home` is
    set, models declared in that module form the inner scope for the scoped
    policy; every import sits in the single outer scope.

    Models are also indexed by (concept, rough key), the key being the
    outermost constructor of the model's Self head (`outermost_con`). A
    model whose Self is a variable or a projection has no key and goes in
    its concept's wildcard bucket, which every lookup includes.
    """

    def __init__(self, models: list[ModelDecl], home: str | None = None):
        self.models = list(models)
        self.home = home
        self._by_concept: dict[str, list[ModelDecl]] = {}
        self._by_key: dict[tuple[str, Con], list[ModelDecl]] = {}
        self._wildcards: dict[str, list[ModelDecl]] = {}
        self._position: dict[int, int] = {}
        self._like: dict[tuple[str, Con], list[ModelDecl]] = {}
        for i, m in enumerate(self.models):
            self._by_concept.setdefault(m.concept, []).append(m)
            self._position[id(m)] = i
            key = outermost_con(m.head[0])
            if key is None:
                self._wildcards.setdefault(m.concept, []).append(m)
            else:
                self._by_key.setdefault((m.concept, key), []).append(m)

    def models_of(self, concept: str) -> list[ModelDecl]:
        return self._by_concept.get(concept, [])

    def models_like(self, concept: str, self_type: TypeTerm) -> list[ModelDecl]:
        """The models of `concept` whose head could match or unify with a
        head whose Self is `self_type`, in world order. Only models whose
        Self constructor differs from `self_type`'s are left out."""
        key = outermost_con(self_type)
        if key is None:
            return self.models_of(concept)
        like = self._like.get((concept, key))
        if like is None:
            like = self._by_key.get((concept, key), [])
            wildcards = self._wildcards.get(concept)
            if wildcards:
                like = sorted(like + wildcards, key=lambda m: self._position[id(m)])
            self._like[(concept, key)] = like
        return like

    def scope_level(self, m: ModelDecl) -> int:
        if self.home is not None and m.module == self.home:
            return 0
        return 1

    def assoc_binding(self, concept, member, subjects, path):
        """Unique-model associated-type lookup used by the normalizer."""
        hits = []
        for m in self.models_like(concept, subjects[0]):
            if path is not None and m.path != path:
                continue
            if member not in m.assoc:
                continue
            match = m.match(subjects)
            if match is not None:
                hits.append(match.apply(m.assoc[member]))
        if len(hits) == 1:
            return hits[0]
        return None


# ---------------------------------------------------------------- typed IR


class TExpr:
    __slots__ = ("span", "type")


class TVarRef(TExpr):
    __slots__ = ("name",)
    def __init__(self, span: Span, type: TypeTerm, name: str):
        self.span, self.type, self.name = span, type, name


class TGlobalFun(TExpr):
    __slots__ = ("module", "name")
    def __init__(self, span: Span, type: TypeTerm, module: str, name: str):
        self.span, self.type, self.module, self.name = span, type, module, name


class TBuiltinRef(TExpr):
    __slots__ = ("name",)
    def __init__(self, span: Span, type: TypeTerm, name: str):
        self.span, self.type, self.name = span, type, name


class TLit(TExpr):
    # kind: u64 | u8 | bool | string | unit | f64
    __slots__ = ("kind", "value")
    def __init__(self, span: Span, type: TypeTerm, kind: str, value: object):
        self.span, self.type, self.kind, self.value = span, type, kind, value


class TCall(TExpr):
    """Application of a global function, builtin, or data constructor."""

    # kind: "fun" | "builtin" | "ctor"
    # target: fun: (module, name); builtin: (name,); ctor: (data_id, ctor)
    # dict_args: one Resolution per Conf constraint of the callee
    __slots__ = ("kind", "target", "tyargs", "dict_args", "args")
    def __init__(self, span: Span, type: TypeTerm, kind: str, target: tuple, tyargs: list[TypeTerm],
                 dict_args: list, args: list[TExpr]):
        self.span, self.type, self.kind, self.target, self.tyargs = span, type, kind, target, tyargs
        self.dict_args, self.args = dict_args, args


class TCallExpr(TExpr):
    """First-class application: the callee is an evaluated expression."""

    __slots__ = ("fn", "args")
    def __init__(self, span: Span, type: TypeTerm, fn: TExpr, args: list[TExpr]):
        self.span, self.type, self.fn, self.args = span, type, fn, args


class TReqCall(TExpr):
    __slots__ = ("concept", "member", "subjects", "resolution", "args")
    def __init__(self, span: Span, type: TypeTerm, concept: str, member: str,
                 subjects: list[TypeTerm], resolution: object, args: list[TExpr]):
        self.span, self.type, self.concept, self.member = span, type, concept, member
        self.subjects, self.resolution, self.args = subjects, resolution, args


class TLam(TExpr):
    __slots__ = ("params", "body")
    def __init__(self, span: Span, type: TypeTerm, params: list[tuple[str, TypeTerm]], body: TExpr):
        self.span, self.type, self.params, self.body = span, type, params, body


class TArm:
    # ctor: (data id, ctor name); None for wildcard
    __slots__ = ("ctor", "binders", "body")
    def __init__(self, ctor: tuple[str, str] | None, binders: list[str], body: TExpr):
        self.ctor, self.binders, self.body = ctor, binders, body


class TMatch(TExpr):
    __slots__ = ("scrutinee", "arms")
    def __init__(self, span: Span, type: TypeTerm, scrutinee: TExpr, arms: list[TArm]):
        self.span, self.type, self.scrutinee, self.arms = span, type, scrutinee, arms


class TLet(TExpr):
    __slots__ = ("name", "bound", "body")
    def __init__(self, span: Span, type: TypeTerm, name: str, bound: TExpr, body: TExpr):
        self.span, self.type, self.name, self.bound, self.body = span, type, name, bound, body


class TTuple(TExpr):
    __slots__ = ("first", "second")
    def __init__(self, span: Span, type: TypeTerm, first: TExpr, second: TExpr):
        self.span, self.type, self.first, self.second = span, type, first, second


class TIf(TExpr):
    __slots__ = ("cond", "then", "orelse")
    def __init__(self, span: Span, type: TypeTerm, cond: TExpr, then: TExpr, orelse: TExpr):
        self.span, self.type, self.cond, self.then, self.orelse = span, type, cond, then, orelse
