"""Checked declarations, the typed expression IR, and model worlds."""

from __future__ import annotations

from dataclasses import dataclass, field

from .diagnostics import Span
from .types import (
    Assoc,
    Con,
    ConstraintTerm,
    Substitution,
    TypeTerm,
    Var,
    freshen,
    match_many,
    outermost_con,
    render,
    render_constraint,
)


@dataclass
class ReqSig:
    name: str
    params: list[tuple[str, TypeTerm]]
    ret: TypeTerm
    span: Span


@dataclass
class ConceptDecl:
    module: str
    name: str
    params: list[Var]  # Self first
    supers: list[ConstraintTerm]  # over params
    assoc_names: list[str]
    requirements: dict[str, ReqSig]
    req_order: list[str]
    span: Span

    @property
    def id(self) -> str:
        return f"{self.module}.{self.name}"

    def instantiate(self, subjects) -> Substitution:
        assert len(subjects) == len(self.params)
        return Substitution({v.uid: s for v, s in zip(self.params, subjects)})


@dataclass
class ModelDecl:
    module: str
    index: int  # position among the module's models, in declaration order
    name: str | None
    concept: str  # concept id
    head: list[TypeTerm]
    vars: list[Var]  # head variables, first-occurrence order
    context: list[ConstraintTerm]
    assoc: dict[str, TypeTerm]
    span: Span
    bodies: dict[str, "TExpr"] = field(default_factory=dict)
    superclass_resolutions: list = field(default_factory=list)
    body_goal_records: dict[str, list] = field(default_factory=dict)

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
        """Match a fresh copy of the head onto `targets`, by head only.

        The result maps the model's own variables, so it applies directly to
        `context`, `vars` and `assoc`. Targets may mention those variables:
        `Substitution.apply` makes one pass, so a ↦ Option[a] stays that.
        """
        fresh_head, sub, _ = freshen(tuple(self.head), self.vars)
        found = match_many(list(zip(fresh_head, targets)))
        if found is None:
            return None
        return Substitution({v.uid: found.apply(sub.apply(v)) for v in self.vars})


@dataclass
class GoalRecord:
    site: Span
    constraint: ConstraintTerm
    trace: object  # resolver TraceNode
    resolution: object | None
    owner: str | None  # "fn:name" | "model:uid.req" | None


@dataclass
class FunDecl:
    module: str
    name: str
    typarams: list[Var]
    params: list[tuple[str, TypeTerm]]
    ret: TypeTerm
    context: list[ConstraintTerm]
    span: Span
    body: "TExpr | None" = None
    goal_records: list[GoalRecord] = field(default_factory=list)

    @property
    def id(self) -> str:
        return f"{self.module}.{self.name}"

    @property
    def is_generic(self) -> bool:
        return bool(self.typarams) or bool(self.context)


@dataclass
class CtorDecl:
    name: str
    fields: list[TypeTerm]
    span: Span


@dataclass
class DataDecl:
    module: str
    name: str
    params: list[Var]
    ctors: list[CtorDecl]
    span: Span

    @property
    def id(self) -> str:
        return f"{self.module}.{self.name}"

    def ctor(self, name: str) -> CtorDecl | None:
        for c in self.ctors:
            if c.name == name:
                return c
        return None


@dataclass
class CheckedModule:
    name: str
    imports: list[str]
    concepts: dict[str, ConceptDecl] = field(default_factory=dict)
    models: list[ModelDecl] = field(default_factory=list)
    funs: dict[str, FunDecl] = field(default_factory=dict)
    datas: dict[str, DataDecl] = field(default_factory=dict)
    goal_log: list[GoalRecord] = field(default_factory=list)
    span: Span | None = None
    world: ModelWorld | None = None  # the models visible here, its own last; set by sema

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


@dataclass
class TExpr:
    span: Span
    type: TypeTerm


@dataclass
class TVarRef(TExpr):
    name: str


@dataclass
class TGlobalFun(TExpr):
    module: str
    name: str


@dataclass
class TBuiltinRef(TExpr):
    name: str


@dataclass
class TLit(TExpr):
    kind: str  # u64 | u8 | bool | string | unit | f64
    value: object


@dataclass
class TCall(TExpr):
    """Application of a global function, builtin, or data constructor."""

    kind: str  # "fun" | "builtin" | "ctor"
    target: tuple  # fun: (module, name); builtin: (name,); ctor: (data_id, ctor)
    tyargs: list[TypeTerm]
    dict_args: list  # one Resolution per Conf constraint of the callee
    args: list[TExpr]


@dataclass
class TCallExpr(TExpr):
    """First-class application: the callee is an evaluated expression."""

    fn: TExpr
    args: list[TExpr]


@dataclass
class TReqCall(TExpr):
    concept: str
    member: str
    subjects: list[TypeTerm]
    resolution: object
    args: list[TExpr]


@dataclass
class TLam(TExpr):
    params: list[tuple[str, TypeTerm]]
    body: TExpr


@dataclass
class TArm:
    ctor: tuple[str, str] | None  # (data id, ctor name); None for wildcard
    binders: list[str]
    body: TExpr


@dataclass
class TMatch(TExpr):
    scrutinee: TExpr
    arms: list[TArm]


@dataclass
class TLet(TExpr):
    name: str
    bound: TExpr
    body: TExpr


@dataclass
class TTuple(TExpr):
    first: TExpr
    second: TExpr


@dataclass
class TIf(TExpr):
    cond: TExpr
    then: TExpr
    orelse: TExpr
