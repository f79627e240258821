"""Checked declarations, the typed expression IR, the one declaration index
of a program, and the model worlds that see it through a module's imports."""

from __future__ import annotations

from .diagnostics import Span
from .types import (
    App,
    Assoc,
    Con,
    Conf,
    ConstraintTerm,
    Substitution,
    TypeTerm,
    Var,
    _intern,
    match_many,
    outermost_con,
)


def bind(env: dict, pairs) -> list:
    """Bind each `(name, value)` of `pairs` in `env` in place, a later
    duplicate winning and `_` binding nothing, and return what they replace
    (None for no entry, so no value is None), for `restore`. No caller
    restores on an exception: each body is checked on an environment of its
    own, which an `Abort` or `CoreIllTyped` drops."""
    replaced = []
    for name, value in pairs:
        if name != "_":
            replaced.append((name, env.get(name)))
            env[name] = value
    return replaced


def restore(env: dict, replaced: list) -> None:
    """Undo the `bind` that returned `replaced`, in reverse."""
    for name, old in reversed(replaced):
        if old is None:
            del env[name]
        else:
            env[name] = old


class CalleeSig:
    """What a call of a global name needs of its declaration, built once per program when the
    function, requirement or constructor is filed in the `Index`, or a builtin is first called."""

    # kind: fun | builtin | ctor | requirement
    # target: fun: (module, name); requirement: (concept id, name); as TCall otherwise
    # with any `tyvars`: `flexible`, their uids, which a call binds, and the call's plan: `plans`,
    # each parameter's `_plan`; `ret_ground`, whether `ret` is GROUND; `goals`, `context`'s `_goals`
    # deferred: whether a bare use of the name, as an argument, waits for its parameter's type:
    # a constructor with no fields and type variables (`None`)
    __slots__ = ("kind", "display", "tyvars", "params", "ret", "context", "target", "deferred",
                 "flexible", "plans", "ret_ground", "goals")
    def __init__(self, kind: str, display: str, tyvars: list[Var], params: list[TypeTerm],
                 ret: TypeTerm, context: list[ConstraintTerm], target: tuple):
        self.kind, self.display, self.tyvars, self.params = kind, display, tyvars, params
        self.ret, self.context, self.target = ret, context, target
        self.deferred = kind == "ctor" and not params and bool(tyvars)
        if tyvars:
            self.flexible = flexible = frozenset(v.uid for v in tyvars)
            self.plans = [_plan(p, flexible) for p in params]
            self.ret_ground = _plan(ret, flexible) is GROUND
            self.goals = _goals(context, flexible)


GROUND, PATTERN = "ground", "pattern"


def _plan(t: TypeTerm, flexible: frozenset[int]):
    """How a call treats an argument of parameter type `t`: GROUND (no flexible variable) checks it
    against `t`; a bare flexible variable's uid synthesizes it to bind that, unless bound already;
    PATTERN synthesizes it and matches `t` onto its type leniently."""
    if type(t) is Var and t.uid in flexible:
        return t.uid
    return PATTERN if any(v.uid in flexible for v in t.fvs) else GROUND


def _goals(context: list[ConstraintTerm], flexible: frozenset[int]) -> list | None:
    """Each constraint of `context` as its concept and its subjects' uids, if each is a conformance
    over variables of `flexible` only; else None."""
    if all(type(c) is Conf and all(type(s) is Var and s.uid in flexible for s in c.subjects)
           for c in context):
        return [(c.concept, [s.uid for s in c.subjects]) for c in context]
    return None


def instantiate_context(context: list[ConstraintTerm], goals: list | None, bound: dict) -> list:
    """`context` under `bound`, which binds every flexible variable of `goals`, its plan."""
    if goals is None:
        return Substitution(bound).apply(context)
    return [_intern(Conf, concept, tuple(map(bound.__getitem__, uids))) for concept, uids in goals]


class ReqSig:
    # types: the parameters' types, then the result's, over the concept's params; plan: how a model
    # body instantiates each, see `ConceptDecl.instantiate_req`
    __slots__ = ("name", "params", "ret", "span", "types", "plan")
    def __init__(self, name: str, params: list[tuple[str, TypeTerm]], ret: TypeTerm, span: Span,
                 concept_params: list[Var]):
        self.name, self.params, self.ret, self.span = name, params, ret, span
        self.types = [t for _, t in params] + [ret]
        self.plan = [concept_params.index(t) if t in concept_params else t if not t.fvs and not t.has_assoc
                     else None for t in self.types]


class ConceptDecl:
    # params: Self first; supers: over params
    __slots__ = (
        "module", "name", "params", "supers", "assoc_names", "requirements", "req_order", "span",
        "id",
    )
    def __init__(self, module: str, name: str, params: list[Var], supers: list[ConstraintTerm],
                 assoc_names: list[str], requirements: dict[str, ReqSig], req_order: list[str],
                 span: Span):
        self.module, self.name, self.params, self.supers = module, name, params, supers
        self.assoc_names, self.requirements, self.req_order = assoc_names, requirements, req_order
        self.span, self.id = span, f"{module}.{name}"

    def instantiate(self, subjects) -> Substitution:
        assert len(subjects) == len(self.params)
        return Substitution({v.uid: s for v, s in zip(self.params, subjects)})

    def instantiate_req(self, req: ReqSig, model: ModelDecl) -> list[TypeTerm]:
        """`req.types` in the bodies of `model`, a model of this concept, as `req.plan` says: a
        parameter is the head's subject at its position, a type with neither parameter nor
        projection is itself, and any other is instantiated with the head, its projections
        `Self.Member` over the head as written bound to the model's own (`bind_assocs`)."""
        head = model.head
        return [head[how] if type(how) is int else how if how is not None else
                bind_assocs(model.concept, head, model.assoc, self.instantiate(head).apply(t))
                for t, how in zip(req.types, req.plan)]


class ModelDecl:
    # index: position among the module's models, in declaration order; concept: concept id
    # vars: head variables, first-occurrence order; with any, the head plan: `uids`, theirs, and
    # `goals`, `context`'s `_goals` over them; bodies: requirement name -> (declared parameters,
    # checked body), as a function keeps them
    __slots__ = (
        "module", "index", "name", "concept", "head", "vars", "context", "assoc", "span", "bodies",
        "superclass_resolutions", "uids", "goals",
    )
    def __init__(self, module: str, index: int, name: str | None, concept: str,
                 head: tuple[TypeTerm, ...], vars: list[Var], context: list[ConstraintTerm],
                 assoc: dict[str, TypeTerm], span: Span):
        self.module, self.index, self.name, self.concept = module, index, name, concept
        self.head, self.vars, self.context, self.assoc, self.span = tuple(head), vars, context, assoc, span
        self.bodies, self.superclass_resolutions = {}, []
        if vars:
            self.uids = [v.uid for v in vars]
            self.goals = _goals(context, frozenset(self.uids))

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

    def instantiate(self, bound: dict) -> tuple[list[TypeTerm], list[ConstraintTerm]]:
        """The type arguments and the context of a generic model under `bound`, the binding of a
        match of its head, which binds every head variable: both read off it as the head plan says."""
        return list(map(bound.__getitem__, self.uids)), instantiate_context(self.context, self.goals, bound)


class GoalRecord:
    # trace: resolver TraceNode
    __slots__ = ("site", "constraint", "trace", "resolution")
    def __init__(self, site: Span, constraint: ConstraintTerm, trace: object,
                 resolution: object | None):
        self.site, self.constraint = site, constraint
        self.trace, self.resolution = trace, resolution


class FunDecl:
    __slots__ = ("module", "name", "typarams", "params", "ret", "context", "span", "body")
    def __init__(self, module: str, name: str, typarams: list[Var],
                 params: list[tuple[str, TypeTerm]], ret: TypeTerm, context: list[ConstraintTerm],
                 span: Span, body: "TExpr | None" = None):
        self.module, self.name, self.typarams, self.params = module, name, typarams, params
        self.ret, self.context, self.span, self.body = ret, context, span, body

    @property
    def id(self) -> str:
        return f"{self.module}.{self.name}"


class CtorDecl:
    __slots__ = ("name", "fields", "span")
    def __init__(self, name: str, fields: list[TypeTerm], span: Span):
        self.name, self.fields, self.span = name, fields, span


class DataDecl:
    # con: the type constructor
    __slots__ = ("module", "name", "params", "ctors", "span", "con", "id")
    def __init__(self, module: str, name: str, params: list[Var], ctors: list[CtorDecl],
                 span: Span):
        self.module, self.name, self.params, self.ctors = module, name, params, ctors
        self.span, self.con, self.id = span, Con(name, len(params), module), f"{module}.{name}"

    def instantiate(self, args) -> Substitution:
        return Substitution({v.uid: a for v, a in zip(self.params, args)})

    def ctor(self, name: str) -> CtorDecl | None:
        for c in self.ctors:
            if c.name == name:
                return c
        return None


class CheckedModule:
    # world: the models visible here, its own last; visible: the names of the
    # modules whose declarations it sees, std and itself included; both set by sema
    __slots__ = (
        "name", "imports", "concepts", "models", "funs", "datas", "goal_log", "span", "world",
        "visible",
    )
    def __init__(self, name: str, imports: list[str], span: Span | None = None,
                 world: ModelWorld | None = None):
        self.name, self.imports, self.concepts, self.models, self.funs = name, imports, {}, [], {}
        self.datas, self.goal_log, self.span, self.world = {}, [], span, world
        self.visible = None


class Index:
    """Every declaration of one program, filed as sema checks it: std's
    first, then each module's in topological order.

    Concepts and data types are kept by id. Every declaration is also kept
    by (kind, name), the kind being "concept", "data", "fun", "ctor",
    "req", "assoc" or "model", grouped by the module that filed it, so that
    a module looks up only what its `visible` modules filed. A function,
    constructor or requirement is kept as its `CalleeSig`, built as it is
    filed, so that every module calls it through the same one. Models are kept in
    filing order and in buckets: by concept, and by (concept, rough key),
    the key being the outermost constructor of the model's Self head
    (`outermost_con`), or None for a Self that is a variable or a projection.
    """

    __slots__ = ("concepts", "datas", "by_name", "models", "buckets", "position", "builtins")

    def __init__(self):
        self.concepts: dict[str, ConceptDecl] = {}
        self.datas: dict[str, DataDecl] = {}
        self.by_name: dict[tuple[str, str], dict[str, list]] = {}  # -> module -> entries
        self.models: list[ModelDecl] = []
        self.buckets: dict[str | tuple[str, Con | None], list[ModelDecl]] = {}
        self.position: dict[int, int] = {}  # id of a model -> its place in `models`
        self.builtins: dict[str, CalleeSig] = {}  # each builtin's, once it is first called

    def push(self, kind: str, name: str, module: str, entry) -> None:
        self.by_name.setdefault((kind, name), {}).setdefault(module, []).append(entry)

    def add_concept(self, concept: ConceptDecl):
        self.concepts[concept.id] = concept
        self.push("concept", concept.name, concept.module, concept)
        for member in concept.assoc_names:
            self.push("assoc", member, concept.module, concept)

    def add_req(self, concept: ConceptDecl, req: ReqSig):
        sig = CalleeSig("requirement", f"{concept.name}.{req.name}", concept.params, req.types[:-1],
                        req.ret, [Conf(concept.id, tuple(concept.params))], (concept.id, req.name))
        self.push("req", req.name, concept.module, sig)

    def add_data(self, data: DataDecl):
        self.datas[data.id] = data
        self.push("data", data.name, data.module, data)
        for ctor in data.ctors:
            self.add_ctor(data, ctor)

    def data_of(self, t: TypeTerm) -> DataDecl | None:
        """The data type of `t`, a normal form, if its outermost constructor is one's."""
        con = outermost_con(t)
        return None if con is None else self.datas.get(f"{con.origin}.{con.name}")

    def add_ctor(self, data: DataDecl, ctor: CtorDecl):
        ret = App(data.con, tuple(data.params)) if data.params else data.con
        self.push("ctor", ctor.name, data.module,
                  CalleeSig("ctor", ctor.name, data.params, ctor.fields, ret, [], (data.id, ctor.name)))

    def add_fun(self, fun: FunDecl):
        sig = CalleeSig("fun", fun.name, fun.typarams, [t for _, t in fun.params], fun.ret, fun.context,
                        (fun.module, fun.name))
        self.push("fun", fun.name, fun.module, sig)

    def add_model(self, model: ModelDecl):
        self.position[id(model)] = len(self.models)
        self.models.append(model)
        self.buckets.setdefault(model.concept, []).append(model)
        key = (model.concept, outermost_con(model.head[0]))
        self.buckets.setdefault(key, []).append(model)
        if model.name:
            self.push("model", model.name, model.module, model)


def bind_assocs(
    concept: str, subjects: tuple, bindings: dict[str, TypeTerm], t: TypeTerm
) -> TypeTerm:
    """Replace the projections `subjects.member` of `concept` in `t` with
    `bindings[member]`. A projection already tagged with a model path names
    its model and is left alone."""
    if not t.has_assoc:
        return t
    t = t.map(lambda x: bind_assocs(concept, subjects, bindings, x))
    if isinstance(t, Assoc) and (t.concept, t.subjects, t.model_path) == (concept, subjects, None):
        return bindings.get(t.member, t)
    return t


# ---------------------------------------------------------------- model world


class ModelWorld:
    """The models of `index` that the modules in `visible` declare (all of
    them when `visible` is None), in filing order: module topological
    index, then declaration index. When `home` is set, models declared in
    that module form the inner scope for the scoped policy; every import
    sits in the single outer scope.

    Each bucket of the index is filtered the first time it is asked for,
    and kept. A lookup by rough key includes the concept's wildcard bucket,
    its models whose Self has no key.
    """

    def __init__(self, index: Index, visible: frozenset[str] | None = None,
                 home: str | None = None):
        self.index, self.visible, self.home = index, visible, home
        self._buckets: dict = {}  # index bucket key -> its visible models; see models_like
        self.candidates: dict = {}  # goal -> its resolver candidates; see resolver.candidates

    def _visible(self, models: list[ModelDecl]) -> list[ModelDecl]:
        if self.visible is None or not models:
            return models
        return [m for m in models if m.module in self.visible]

    def _bucket(self, key) -> list[ModelDecl]:
        found = self._buckets.get(key)
        if found is None:
            found = self._buckets[key] = self._visible(self.index.buckets.get(key, []))
        return found

    def models_of(self, concept: str) -> list[ModelDecl]:
        return self._bucket(concept)

    def models_like(self, concept: str, self_type: TypeTerm) -> list[ModelDecl]:
        """The models of `concept` whose head could match or unify with a
        head whose Self is `self_type`, in world order. Only models whose
        Self constructor differs from `self_type`'s are left out."""
        key = outermost_con(self_type)
        if key is None:
            return self._bucket(concept)
        key = concept, key
        like = self._buckets.get(key)
        if like is None:
            like = self._visible(self.index.buckets.get(key, []))
            wildcards = self._bucket((concept, None))
            if wildcards:
                position = self.index.position
                like = sorted(like + wildcards, key=lambda m: position[id(m)])
            self._buckets[key] = like
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
    __slots__ = ("member", "resolution", "args")
    def __init__(self, span: Span, type: TypeTerm, member: str, resolution: object,
                 args: list[TExpr]):
        self.span, self.type, self.member = span, type, member
        self.resolution, self.args = resolution, args


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
