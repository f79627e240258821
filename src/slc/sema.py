"""Name resolution, declaration well-formedness, and type checking.

Checking is bidirectional and deliberately local: generics exist only at
declaration heads, applications synthesize, lambdas and match expressions
check against expected types, and type arguments of generic calls are found
by one-way matching of parameter types against argument types with
annotations filling the rest.

Every constraint discharged inside a body is recorded with its resolution
trace; the records feed the `explain` command, the stability analysis, and
dictionary-passing elaboration.
"""

from __future__ import annotations

from . import ast as A
from .coherence import CoherencePolicy
from .decls import (
    CheckedModule,
    ConceptDecl,
    CtorDecl,
    DataDecl,
    FunDecl,
    GoalRecord,
    ModelDecl,
    ModelWorld,
    ReqSig,
    TArm,
    TBuiltinRef,
    TCall,
    TCallExpr,
    TExpr,
    TGlobalFun,
    TIf,
    TLam,
    TLet,
    TLit,
    TMatch,
    TReqCall,
    TTuple,
    TVarRef,
    bind_assocs,
)
from .diagnostics import Diagnostic, Related, Span
from .resolver import DEFAULT_DEPTH, Goal, Resolution, Resolver
from .std import BUILTIN_SIGS, STD_MODULE
from .types import (
    BOOL,
    BUILTIN_CONS,
    F64,
    STRING,
    U64,
    U8,
    UNIT,
    App,
    Assoc,
    Con,
    Conf,
    ConstraintTerm,
    Eq,
    NormDiverge,
    Substitution,
    TypeTerm,
    Var,
    fn_type,
    free_vars,
    fresh_uid,
    normalize,
    outermost_con,
    pair_type,
    render,
    render_constraint,
    split_fn_type,
)


class SemaAbort(Exception):
    """Aborts checking of one declaration after an unrecoverable diagnostic."""

    def __init__(self, diag: Diagnostic):
        self.diagnostic = diag
        super().__init__(diag.message)


def check_module(
    ast: A.ModuleAST,
    imports: list[CheckedModule],
    policy: CoherencePolicy,
    depth: int = DEFAULT_DEPTH,
) -> tuple[CheckedModule, list[Diagnostic]]:
    """Check one module against its (already checked) imports."""
    return ModuleChecker(ast, imports, policy, depth).run()


class ModuleChecker:
    def __init__(
        self,
        ast: A.ModuleAST,
        imports: list[CheckedModule],
        policy: CoherencePolicy,
        depth: int = DEFAULT_DEPTH,
    ):
        self.ast = ast
        self.policy = policy
        self.depth = depth
        self.visible = [STD_MODULE] + list(imports)  # topo order, std first
        self.module = CheckedModule(name=ast.name, imports=list(ast.imports), span=ast.span)
        self.diags: list[Diagnostic] = []

        # Name tables over everything visible (own entries added as they form).
        self.concepts: dict[str, ConceptDecl] = {}
        self.datas: dict[str, DataDecl] = {}
        self.concept_names: dict[str, list[ConceptDecl]] = {}
        self.data_names: dict[str, list[DataDecl]] = {}
        self.fun_names: dict[str, list[FunDecl]] = {}
        self.ctor_names: dict[str, list[tuple[DataDecl, CtorDecl]]] = {}
        self.req_names: dict[str, list[tuple[ConceptDecl, ReqSig]]] = {}
        self.assoc_names: dict[str, list[ConceptDecl]] = {}
        self.model_names: dict[str, list[ModelDecl]] = {}

        for mod in self.visible:
            self._index_module(mod)

    # ------------------------------------------------------------ indexing

    def _index_module(self, mod: CheckedModule):
        for concept in mod.concepts.values():
            self._index_concept(concept)
        for data in mod.datas.values():
            self._index_data(data)
        for fun in mod.funs.values():
            self.fun_names.setdefault(fun.name, []).append(fun)
        for model in mod.models:
            if model.name:
                self.model_names.setdefault(model.name, []).append(model)

    def _index_concept(self, concept: ConceptDecl):
        self.concepts[concept.id] = concept
        self.concept_names.setdefault(concept.name, []).append(concept)
        for member in concept.assoc_names:
            self.assoc_names.setdefault(member, []).append(concept)
        for req in concept.requirements.values():
            self.req_names.setdefault(req.name, []).append((concept, req))

    def _index_data(self, data: DataDecl):
        self.datas[data.id] = data
        self.data_names.setdefault(data.name, []).append(data)
        for ctor in data.ctors:
            self.ctor_names.setdefault(ctor.name, []).append((data, ctor))

    # ------------------------------------------------------------ driver

    def run(self) -> tuple[CheckedModule, list[Diagnostic]]:
        concept_asts = [d for d in self.ast.decls if isinstance(d, A.ConceptAST)]
        data_asts = [d for d in self.ast.decls if isinstance(d, A.DataAST)]
        model_asts = [d for d in self.ast.decls if isinstance(d, A.ModelAST)]
        fun_asts = [d for d in self.ast.decls if isinstance(d, A.FunAST)]

        self._check_local_name_clashes(concept_asts, data_asts, fun_asts)

        # Headers first so declarations may refer to each other freely.
        data_decls = [self._predeclare_data(d) for d in data_asts]
        concept_decls = [self._predeclare_concept(c) for c in concept_asts]
        for decl, dast in zip(data_decls, data_asts):
            self._fill_data(decl, dast)
            self.module.datas[decl.name] = decl
        for decl, cast in zip(concept_decls, concept_asts):
            self._fill_concept(decl, cast)
            self.module.concepts[decl.name] = decl
        self._check_refinement_cycles(concept_decls)

        for index, mast in enumerate(model_asts):
            model = self.attempt(self._build_model_header, mast, index)
            if model is not None:
                self.module.models.append(model)
                if model.name:
                    self.model_names.setdefault(model.name, []).append(model)

        world_models = [m for mod in self.visible for m in mod.models] + self.module.models
        self.module.world = ModelWorld(world_models, home=self.module.name)

        fun_decls = [self.attempt(self._build_fun_header, f) for f in fun_asts]
        for decl in fun_decls:
            if decl is not None:
                self.module.funs[decl.name] = decl
                self.fun_names.setdefault(decl.name, []).append(decl)

        for model, mast in zip(list(self.module.models), model_asts):
            self._check_model_obligations_and_bodies(model, mast)

        for decl, fast in zip(fun_decls, fun_asts):
            if decl is not None:
                self.attempt(self._check_fun_body, decl, fast)

        return self.module, self.diags

    def _check_local_name_clashes(self, concepts, datas, funs):
        for decls, what in ((list(concepts) + list(datas), "type-level"), (funs, "function")):
            seen: dict[str, Span] = {}
            for d in decls:
                if d.name in seen:
                    self.report(
                        "E-NAME",
                        f"duplicate {what} name '{d.name}' in module {self.ast.name}",
                        d.span,
                        related=(Related(seen[d.name], "first declaration"),),
                    )
                seen[d.name] = d.span

    # ------------------------------------------------------------ diagnostics

    def diag(self, code: str, msg: str, span: Span, related=()) -> Diagnostic:
        """The one constructor of sema diagnostics: each blames this module."""
        return Diagnostic(code, msg, span, module=self.ast.name, related=related)

    def report(self, code: str, msg: str, span: Span, related=()):
        self.diags.append(self.diag(code, msg, span, related))

    def abort(self, code: str, msg: str, span: Span):
        raise SemaAbort(self.diag(code, msg, span))

    def attempt(self, build, *args):
        """`build(*args)`, or None once its SemaAbort diagnostic is recorded."""
        try:
            return build(*args)
        except SemaAbort as exc:
            self.diags.append(exc.diagnostic)
            return None

    # ------------------------------------------------------------ declarations

    def _predeclare_data(self, dast: A.DataAST) -> DataDecl:
        params = [Var(p, fresh_uid()) for p in dast.params]
        decl = DataDecl(self.module.name, dast.name, params, [], dast.span)
        self._index_data(decl)
        return decl

    def _predeclare_concept(self, cast: A.ConceptAST) -> ConceptDecl:
        params = [Var(p, fresh_uid()) for p in cast.params]
        decl = ConceptDecl(
            module=self.module.name,
            name=cast.name,
            params=params,
            supers=[],
            assoc_names=list(cast.assoc_names),
            requirements={},
            req_order=[],
            span=cast.span,
        )
        self._index_concept(decl)
        return decl

    def _fill_data(self, decl: DataDecl, dast: A.DataAST):
        tyvars = {v.name: v for v in decl.params}
        seen = set()
        for ctor in dast.ctors:
            if ctor.name in seen:
                self.report("E-NAME", f"duplicate constructor '{ctor.name}'", ctor.span)
                continue
            seen.add(ctor.name)
            fields = self.attempt(lambda: [self.resolve_type(f, tyvars) for f in ctor.fields])
            if fields is None:
                continue
            decl.ctors.append(CtorDecl(ctor.name, fields, ctor.span))
            self.ctor_names.setdefault(ctor.name, []).append((decl, decl.ctors[-1]))

    def _fill_concept(self, decl: ConceptDecl, cast: A.ConceptAST):
        tyvars = {v.name: v for v in decl.params}
        for sup in cast.supers:
            constraint = self.attempt(self.resolve_constraint, sup, tyvars)
            if constraint is None:
                continue
            if isinstance(constraint, Conf):
                extra = [
                    v
                    for v in constraint.fvs
                    if v.uid not in {p.uid for p in decl.params}
                ]
                if extra:
                    self.report(
                        "E-NAME",
                        "superclass constraints may mention only the concept's parameters",
                        sup.span,
                    )
                    continue
            decl.supers.append(constraint)
        seen_assoc = set()
        for member in cast.assoc_names:
            if member in seen_assoc:
                self.report(
                    "E-NAME",
                    f"duplicate associated type '{member}' in concept {decl.name}",
                    cast.span,
                )
            seen_assoc.add(member)
        for req in cast.requirements:
            if req.name in decl.requirements:
                self.report(
                    "E-NAME", f"duplicate requirement '{req.name}' in concept {decl.name}", req.span
                )
                continue
            sig = self.attempt(self._req_sig, req, tyvars)
            if sig is None:
                continue
            decl.requirements[req.name] = sig
            decl.req_order.append(req.name)
            self.req_names.setdefault(req.name, []).append((decl, sig))

    def _req_sig(self, req: A.ReqSigAST, tyvars: dict[str, Var]) -> ReqSig:
        params = [(n, self.resolve_type(t, tyvars)) for n, t in req.params]
        return ReqSig(req.name, params, self.resolve_type(req.ret, tyvars), req.span)

    def _check_refinement_cycles(self, local_concepts: list[ConceptDecl]):
        def supers_of(cid: str) -> list[str]:
            c = self.concepts.get(cid)
            if c is None:
                return []
            return [s.concept for s in c.supers if isinstance(s, Conf)]

        for start in local_concepts:
            stack, visited = [start.id], set()
            while stack:
                cid = stack.pop()
                for nxt in supers_of(cid):
                    if nxt == start.id:
                        self.report(
                            "E-NAME", f"cyclic concept refinement through {start.name}", start.span
                        )
                        stack = []
                        break
                    if nxt not in visited:
                        visited.add(nxt)
                        stack.append(nxt)

    def _build_model_header(self, mast: A.ModelAST, index: int) -> ModelDecl:
        concept = self.lookup_concept(mast.concept, mast.span)
        if len(mast.head) != len(concept.params):
            self.abort(
                "E-ARITY",
                f"concept {concept.name} expects {len(concept.params)} head types, "
                f"got {len(mast.head)}",
                mast.span,
            )
        implicit: dict[str, Var] = {}
        head = [self.resolve_type(t, {}, implicit) for t in mast.head]
        head_vars = list(implicit.values())
        context = [self.resolve_constraint(c, {}, implicit) for c in mast.context]
        model = ModelDecl(
            module=self.module.name,
            index=index,
            name=mast.name,
            concept=concept.id,
            head=head,
            vars=head_vars,
            context=context,
            assoc={},
            span=mast.span,
        )
        if self.policy.kind == "scoped" and model.name is None:
            self.report(
                "E-NEEDS-NAME", "the scoped policy requires every model to be named", mast.span
            )
        head_uids = {v.uid for v in head_vars}
        for c in context:
            for v in c.fvs:
                if v.uid not in head_uids:
                    self.report(
                        "E-NAME",
                        f"constraint variable '{v.name}' does not occur in the model head",
                        mast.span,
                    )
        # Associated-type bindings: each declared member exactly once.
        bound = set()
        for bind in mast.assoc_binds:
            if bind.member not in concept.assoc_names:
                self.report(
                    "E-NAME",
                    f"concept {concept.name} has no associated type '{bind.member}'",
                    bind.span,
                )
                continue
            if bind.member in bound:
                self.report("E-NAME", f"associated type '{bind.member}' bound twice", bind.span)
                continue
            bound.add(bind.member)
            rhs = self.resolve_type(bind.rhs, {v.name: v for v in model.vars})
            for v in rhs.fvs:
                if v.uid not in head_uids:
                    self.report(
                        "E-NAME",
                        f"binding variable '{v.name}' does not occur in the model head",
                        bind.span,
                    )
            model.assoc[bind.member] = rhs
        for member in concept.assoc_names:
            if member not in bound:
                self.report(
                    "E-UNBOUND-ASSOC",
                    f"model {model.display} leaves associated type "
                    f"'{member}' of {concept.name} unbound",
                    mast.span,
                )
        # Requirement coverage by name.
        given = {b.name for b in mast.bodies}
        for req in concept.req_order:
            if req not in given:
                self.report(
                    "E-MISSING-REQ",
                    f"model {model.display} does not implement requirement "
                    f"'{req}' of {concept.name}",
                    mast.span,
                )
        for b in mast.bodies:
            if b.name not in concept.requirements:
                msg = f"concept {concept.name} has no requirement '{b.name}'"
                self.report("E-NAME", msg, b.span)
        return model

    def _build_fun_header(self, fast: A.FunAST) -> FunDecl:
        seen = set()
        typarams = []
        for p in fast.typarams:
            if p in seen:
                self.abort("E-NAME", f"duplicate type parameter '{p}'", fast.span)
            seen.add(p)
            typarams.append(Var(p, fresh_uid()))
        tyvars = {v.name: v for v in typarams}
        params = [(n, self.resolve_type(t, tyvars)) for n, t in fast.params]
        ret = self.resolve_type(fast.ret, tyvars)
        context = [self.resolve_constraint(c, tyvars) for c in fast.context]
        return FunDecl(
            module=self.module.name,
            name=fast.name,
            typarams=typarams,
            params=params,
            ret=ret,
            context=context,
            span=fast.span,
        )

    # ------------------------------------------------------------ obligations

    def _check_model_obligations_and_bodies(self, model: ModelDecl, mast: A.ModelAST):
        concept = self.concepts[model.concept]
        inst = concept.instantiate(model.head)
        inst_supers = [inst.apply(s) for s in concept.supers]
        givens = list(model.context) + inst_supers
        rigid = frozenset(v.uid for v in model.vars)
        resolver = Resolver(self.module.world, self.concepts, self.policy, self.depth, model.context)

        for sup in inst_supers:
            res, trace, diags = resolver.resolve(Goal(sup, rigid, model.span))
            record = GoalRecord(model.span, sup, trace, res, f"model:{model.uid}")
            self.module.goal_log.append(record)
            self.report_goal(res, diags, sup, rigid, model.span, concept.name)
            model.superclass_resolutions.append(res)

        tyvars = {v.name: v for v in model.vars}
        for body in mast.bodies:
            sig = concept.requirements.get(body.name)
            if sig is None:
                continue  # already reported
            # Inside the model's own bodies, `Self.Member` over the head as
            # written means the model's binding, even when the head is generic.
            own = tuple(model.head)
            inst_params = [
                (n, bind_assocs(model.concept, own, model.assoc, inst.apply(t)))
                for n, t in sig.params
            ]
            inst_ret = bind_assocs(model.concept, own, model.assoc, inst.apply(sig.ret))
            if len(body.params) != len(inst_params):
                msg = f"requirement '{body.name}' takes {len(inst_params)} parameters"
                self.report("E-ARITY", msg, body.span)
                continue
            try:
                checker = ExprChecker(
                    self,
                    tyvars=tyvars,
                    rigid=rigid,
                    givens=givens,
                    owner=f"model:{model.uid}.{body.name}",
                )
                declared = [(n, self.resolve_type(t, tyvars)) for n, t in body.params]
                for (dn, dt), (_, st) in zip(declared, inst_params):
                    checker.require_equal(dt, st, body.span, f"parameter '{dn}'")
                declared_ret = self.resolve_type(body.ret, tyvars)
                checker.require_equal(declared_ret, inst_ret, body.span, "return type")
                env = {n: t for n, t in declared}
                checked = checker.check(body.body, declared_ret, env)
                model.bodies[body.name] = TLam(body.span, checker.fn_type_of(declared, declared_ret), declared, checked)
                model.body_goal_records[body.name] = checker.records
            except SemaAbort as exc:
                self.diags.append(exc.diagnostic)

    def _check_fun_body(self, decl: FunDecl, fast: A.FunAST):
        checker = ExprChecker(
            self,
            tyvars={v.name: v for v in decl.typarams},
            rigid=frozenset(v.uid for v in decl.typarams),
            givens=list(decl.context),
            owner=f"fn:{decl.name}",
        )
        decl.body = checker.check(fast.body, decl.ret, dict(decl.params))
        decl.goal_records = checker.records

    # ------------------------------------------------------------ lookups

    def lookup_concept(self, name: str, span: Span) -> ConceptDecl:
        hits = self.concept_names.get(name, [])
        if not hits:
            self.abort("E-NAME", f"unknown concept '{name}'", span)
        if len(hits) > 1:
            mods = ", ".join(sorted(c.module for c in hits))
            self.abort("E-NAME", f"concept name '{name}' is ambiguous (declared in {mods})", span)
        return hits[0]

    def _unique(self, table: dict, name: str, what: str, span: Span):
        hits = table.get(name, [])
        if not hits:
            return None
        if len(hits) > 1:
            self.abort("E-NAME", f"{what} name '{name}' is ambiguous", span)
        return hits[0]

    # ------------------------------------------------------------ types

    def resolve_type(
        self,
        t: A.TypeExprAST,
        tyvars: dict[str, Var],
        implicit: dict[str, Var] | None = None,
    ) -> TypeTerm:
        if isinstance(t, A.TUnit):
            return UNIT
        if isinstance(t, A.TTuple):
            return pair_type(
                self.resolve_type(t.items[0], tyvars, implicit),
                self.resolve_type(t.items[1], tyvars, implicit),
            )
        if isinstance(t, A.TFn):
            params = [self.resolve_type(p, tyvars, implicit) for p in t.params]
            return fn_type(params, self.resolve_type(t.ret, tyvars, implicit))
        if isinstance(t, A.TProj):
            base = self.resolve_type(t.base, tyvars, implicit)
            return self.make_assoc(base, t.member, t.span)
        assert isinstance(t, A.TName)
        base = self._resolve_base_name(t, tyvars, implicit)
        for member in t.projections:
            base = self.make_assoc(base, member, t.span)
        return base

    def _resolve_base_name(
        self, t: A.TName, tyvars: dict[str, Var], implicit: dict[str, Var] | None
    ) -> TypeTerm:
        name = t.base
        if name in tyvars:
            if t.args:
                msg = f"type variable '{name}' cannot be applied to arguments"
                self.abort("E-ARITY", msg, t.span)
            return tyvars[name]
        con = BUILTIN_CONS.get(name)
        if con is None:
            data = self._unique(self.data_names, name, "data type", t.span)
            if data is not None:
                con = Con(data.name, len(data.params), data.module)
        if con is not None:
            args = [self.resolve_type(a, tyvars, implicit) for a in t.args]
            if len(args) != con.arity:
                self.abort(
                    "E-ARITY",
                    f"type constructor {con.name} expects {con.arity} arguments, got {len(args)}",
                    t.span,
                )
            return App(con, tuple(args)) if args else con
        # A named model as a projection path (scoped policy syntax).
        if t.projections and self.policy.kind == "scoped":
            model = self._unique(self.model_names, name, "model", t.span)
            if model is not None:
                concept = self.concepts[model.concept]
                member = t.projections[0]
                if member not in concept.assoc_names:
                    msg = f"concept {concept.name} has no associated type '{member}'"
                    self.abort("E-NAME", msg, t.span)
                base = Assoc(concept.id, member, tuple(model.head), model.path)
                for extra in t.projections[1:]:
                    base = self.make_assoc(base, extra, t.span)
                return base
        if implicit is not None:
            if t.args:
                self.abort("E-NAME", f"unknown type constructor '{name}'", t.span)
            if name not in implicit:
                implicit[name] = Var(name, fresh_uid())
            return implicit[name]
        self.abort("E-NAME", f"unknown type '{name}'", t.span)

    def make_assoc(self, subject: TypeTerm, member: str, span: Span) -> TypeTerm:
        owners = [
            c for c in self.assoc_names.get(member, []) if len(c.params) == 1
        ]
        if not owners:
            self.abort("E-NAME", f"no visible concept declares an associated type '{member}'", span)
        if len(owners) > 1:
            names = ", ".join(sorted(c.id for c in owners))
            self.abort("E-NAME", f"associated type '{member}' is ambiguous between {names}", span)
        concept = owners[0]
        term = Assoc(concept.id, member, (subject,))
        return self._tag_scoped_assoc(term)

    def _tag_scoped_assoc(self, term: Assoc) -> TypeTerm:
        """Under the scoped policy, pin untagged ground projections to the
        unique named model in scope."""
        if self.policy.kind != "scoped" or term.model_path is not None:
            return term
        world = self.module.world  # None while model headers are built
        if world is None or term.fvs:
            return term
        matching = [
            m
            for m in world.models_like(term.concept, term.subjects[0])
            if m.name and term.member in m.assoc and m.match(term.subjects) is not None
        ]
        if not matching:
            return term
        best = min(world.scope_level(m) for m in matching)
        level = [m for m in matching if world.scope_level(m) == best]
        if len(level) == 1:
            return Assoc(term.concept, term.member, term.subjects, level[0].path)
        return term

    def resolve_constraint(
        self,
        c: A.ConstraintAST,
        tyvars: dict[str, Var],
        implicit: dict[str, Var] | None = None,
    ) -> ConstraintTerm:
        if isinstance(c, A.EqAST):
            return Eq(
                self.resolve_type(c.lhs, tyvars, implicit),
                self.resolve_type(c.rhs, tyvars, implicit),
            )
        assert isinstance(c, A.ConfAST)
        concept = self.lookup_concept(c.concept, c.span)
        if len(c.args) != len(concept.params):
            self.abort(
                "E-ARITY",
                f"concept {concept.name} takes {len(concept.params)} subjects, got {len(c.args)}",
                c.span,
            )
        subjects = tuple(self.resolve_type(a, tyvars, implicit) for a in c.args)
        return Conf(concept.id, subjects)

    # ------------------------------------------------------------ goal plumbing

    def report_goal(
        self,
        res: Resolution | None,
        diags: list[Diagnostic],
        constraint: ConstraintTerm,
        rigid: frozenset[int],
        span: Span,
        what: str,
    ):
        """Report a goal's diagnostics, blaming this module: all of them when
        the goal failed, its warnings when it resolved. Resolution failures
        on rigid subjects are missing assumptions."""
        involves_rigid = any(v.uid in rigid for v in constraint.fvs)
        for d in diags:
            if res is not None and d.severity != "warning":
                continue
            code, msg = d.code, d.message
            if code == "E-NO-MODEL" and involves_rigid:
                code = "E-TYPE-MISMATCH"
                msg += (
                    f"; the constraint {render_constraint(constraint)} is not entailed by the "
                    f"context of {what}"
                )
            self.report(code, msg, d.span, d.related)


# ---------------------------------------------------------------- expressions


class CalleeSig:
    # kind: fun | builtin | ctor | requirement
    # target: fun: (module, name); requirement: (concept id, name); as TCall otherwise
    __slots__ = ("kind", "display", "tyvars", "params", "ret", "context", "target")
    def __init__(self, kind: str, display: str, tyvars: list[Var], params: list[TypeTerm],
                 ret: TypeTerm, context: list[ConstraintTerm], target: tuple):
        self.kind, self.display, self.tyvars, self.params = kind, display, tyvars, params
        self.ret, self.context, self.target = ret, context, target


def _unbound(t: TypeTerm, binding: Substitution, flexible: frozenset[int]) -> bool:
    """Whether `t` has a flexible variable that `binding` does not bind yet.
    Bound values are not looked into: a recursive call may bind its own
    variable T to a type of the caller that mentions the rigid T."""
    return any(v.uid in flexible and v.uid not in binding.bindings for v in t.fvs)


class ExprChecker:
    def __init__(
        self,
        mc: ModuleChecker,
        tyvars: dict[str, Var],
        rigid: frozenset[int],
        givens: list[ConstraintTerm],
        owner: str,
    ):
        self.mc = mc
        self.tyvars = tyvars
        self.rigid = rigid
        self.owner = owner
        self.records: list[GoalRecord] = []
        self.resolver = Resolver(mc.module.world, mc.concepts, mc.policy, mc.depth, givens)

    # ------------------------------------------------------------- utilities

    def fn_type_of(self, params, ret) -> TypeTerm:
        return fn_type([t for _, t in params], ret)

    def norm(self, t: TypeTerm, span: Span) -> TypeTerm:
        try:
            return normalize(t, self.resolver.eq_rules, self.mc.module.world)
        except NormDiverge:
            self.mc.abort(
                "E-NORM-DIVERGE",
                f"normalization of {render(t)} did not terminate",
                span,
            )

    def require_equal(self, found: TypeTerm, expected: TypeTerm, span: Span, what: str):
        found_n = self.norm(found, span)
        expected_n = self.norm(expected, span)
        if found_n != expected_n:
            self.mismatch(what, (expected, expected_n), (found, found_n), span)

    def mismatch(self, what: str, expected: tuple, found: tuple, span: Span):
        """E-TYPE-MISMATCH; `expected` and `found` are (type, normal form)."""

        def show(t: TypeTerm, t_n: TypeTerm) -> str:
            return render(t) if t_n == t else f"{render(t)} (= {render(t_n)})"

        self.mc.abort(
            "E-TYPE-MISMATCH",
            f"type mismatch in {what}: expected {show(*expected)}, found {show(*found)}",
            span,
        )

    def discharge(self, constraint: ConstraintTerm, span: Span):
        res, trace, diags = self.resolver.resolve(Goal(constraint, self.rigid, span))
        record = GoalRecord(span, constraint, trace, res, self.owner)
        self.records.append(record)
        self.mc.module.goal_log.append(record)
        self.mc.report_goal(res, diags, constraint, self.rigid, span, self.owner)
        return res

    # ------------------------------------------------------------- callables

    def _callee_sig(self, name: str, span: Span) -> CalleeSig | None:
        """The signature of the callee `name`, over its declared type
        variables. A recursive call meets its own variables in the caller's
        types too; `_apply_sig` keeps those rigid."""
        mc = self.mc
        fun = mc._unique(mc.fun_names, name, "function", span)
        req = mc._unique(mc.req_names, name, "requirement", span)
        ctor = mc._unique(mc.ctor_names, name, "constructor", span)
        hits = [x for x in (fun, req, ctor) if x is not None]
        if len(hits) > 1:
            self.mc.abort("E-NAME", f"name '{name}' is ambiguous in this scope", span)
        if fun is not None:
            kind, display, target = "fun", fun.name, (fun.module, fun.name)
            tyvars, params = fun.typarams, [t for _, t in fun.params]
            ret, context = fun.ret, fun.context
        elif req is not None:
            concept, sig = req
            kind, target = "requirement", (concept.id, sig.name)
            display = f"{concept.name}.{sig.name}"
            tyvars, params, ret = concept.params, [t for _, t in sig.params], sig.ret
            context = [Conf(concept.id, tuple(concept.params))]
        elif ctor is not None:
            data, cdecl = ctor
            con = Con(data.name, len(data.params), data.module)
            kind, display, target = "ctor", cdecl.name, (data.id, cdecl.name)
            tyvars, params, context = data.params, cdecl.fields, []
            ret = App(con, tuple(data.params)) if data.params else con
        elif name in BUILTIN_SIGS:
            kind, display, target = "builtin", name, (name,)
            tyvars, params, ret = BUILTIN_SIGS[name]
            context = []
        else:
            return None
        return CalleeSig(kind, display, list(tyvars), list(params), ret, list(context), target)

    def _is_deferred(self, e: A.ExprAST) -> bool:
        if isinstance(e, (A.ELambda, A.EMatch, A.EIf, A.ELet)):
            return True
        if isinstance(e, A.EInt) and e.width is None:
            return True
        if isinstance(e, A.EVar):
            ctor = self.mc.ctor_names.get(e.name)
            if ctor and len(ctor) == 1:
                data, cdecl = ctor[0]
                if not cdecl.fields and data.params:
                    return True
        return False

    def _match_lenient(
        self,
        pat: TypeTerm,
        tgt: TypeTerm,
        binding: Substitution,
        flexible: frozenset[int],
        span: Span,
    ) -> bool:
        """Absorb type information from an argument into the binding.

        `pat` is walked as declared; the binding is applied only to compare
        a part with no unbound flexible variable left. Projections whose
        subjects are still undetermined yield no information yet; a later
        validation pass checks them once every type parameter is known.
        """
        if not _unbound(pat, binding, flexible):
            return self.norm(binding.apply(pat), span) == self.norm(tgt, span)
        if isinstance(pat, Var):
            binding.bind(pat.uid, tgt)  # keep the target's original form
            return True
        if isinstance(pat, Assoc):
            return True  # undetermined projection, validated later
        if isinstance(pat, App):
            for candidate in (tgt, self.norm(tgt, span)):
                if (
                    isinstance(candidate, App)
                    and pat.head == candidate.head
                    and len(pat.args) == len(candidate.args)
                ):
                    return all(
                        self._match_lenient(a, b, binding, flexible, span)
                        for a, b in zip(pat.args, candidate.args)
                    )
        return False

    def _apply_sig(
        self,
        sig: CalleeSig,
        span: Span,
        args: list[A.ExprAST],
        env: dict[str, TypeTerm],
        expected: TypeTerm | None,
    ) -> TExpr:
        if len(args) != len(sig.params):
            self.mc.abort(
                "E-ARITY",
                f"{sig.display} takes {len(sig.params)} arguments, got {len(args)}",
                span,
            )
        binding = Substitution()
        flexible = frozenset(v.uid for v in sig.tyvars)
        checked: list[TExpr | None] = [None] * len(args)
        synthed: list[TypeTerm | None] = [None] * len(args)

        def absorb(pattern: TypeTerm, target: TypeTerm, where: Span, what: str):
            if not self._match_lenient(pattern, target, binding, flexible, where):
                pat = binding.apply(pattern)
                expected = (pat, self.norm(pat, where))
                self.mismatch(what, expected, (target, self.norm(target, where)), where)

        if expected is not None and _unbound(sig.ret, binding, flexible):
            absorb(sig.ret, expected, span, f"result of {sig.display}")
        for i, arg in enumerate(args):
            if self._is_deferred(arg) or not _unbound(sig.params[i], binding, flexible):
                continue
            t_arg, tex = self.synth(arg, env)
            checked[i] = tex
            synthed[i] = t_arg
            absorb(sig.params[i], t_arg, arg.span, f"argument {i + 1} of {sig.display}")
        unbound = [v for v in sig.tyvars if v.uid not in binding.bindings]
        if unbound:
            names = ", ".join(v.name for v in unbound)
            self.mc.abort(
                "E-CANNOT-INFER",
                f"cannot infer type parameter(s) {names} of {sig.display}; "
                f"add an annotation",
                span,
            )
        for i, arg in enumerate(args):
            if checked[i] is None:
                checked[i] = self.check(arg, binding.apply(sig.params[i]), env)
            else:
                # validates projections that were undetermined during matching
                self.require_equal(
                    synthed[i],
                    binding.apply(sig.params[i]),
                    arg.span,
                    f"argument {i + 1} of {sig.display}",
                )
        resolutions = []
        for c in sig.context:
            inst = binding.apply(c)
            resolutions.append(self.discharge(inst, span))
        result = binding.apply(sig.ret)
        tyargs = [binding.apply(v) for v in sig.tyvars]
        if sig.kind == "requirement":
            concept_id, member = sig.target
            return TReqCall(span, result, concept_id, member, tyargs, resolutions[0], list(checked))
        # constructors and builtins have no context, so no resolutions
        return TCall(span, result, sig.kind, sig.target, tyargs, resolutions, list(checked))

    # ------------------------------------------------------------- synthesis

    def synth(self, e: A.ExprAST, env: dict[str, TypeTerm]) -> tuple[TypeTerm, TExpr]:
        if isinstance(e, A.EVar):
            if e.name in env:
                return env[e.name], TVarRef(e.span, env[e.name], e.name)
            return self._synth_global(e, env)
        if isinstance(e, A.EInt):
            if e.width is None:
                self.mc.abort(
                    "E-CANNOT-INFER",
                    "integer literal needs a width (write e.g. `0:U64` or `0:U8`)",
                    e.span,
                )
            ty = U64 if e.width == "U64" else U8
            return ty, TLit(e.span, ty, "u64" if e.width == "U64" else "u8", e.value)
        if isinstance(e, A.EFloat):
            return F64, TLit(e.span, F64, "f64", e.lexeme)
        if isinstance(e, A.EString):
            return STRING, TLit(e.span, STRING, "string", e.value)
        if isinstance(e, A.EBool):
            return BOOL, TLit(e.span, BOOL, "bool", e.value)
        if isinstance(e, A.EUnit):
            return UNIT, TLit(e.span, UNIT, "unit", ())
        if isinstance(e, A.EApp):
            return self._synth_app(e, env, expected=None)
        if isinstance(e, A.ETuple):
            t1, x1 = self.synth(e.items[0], env)
            t2, x2 = self.synth(e.items[1], env)
            ty = pair_type(t1, t2)
            return ty, TTuple(e.span, ty, x1, x2)
        if isinstance(e, A.EAnnot):
            ty = self.mc.resolve_type(e.annot, self.tyvars)
            return ty, self.check(e.expr, ty, env)
        if isinstance(e, (A.ELet, A.EIf, A.EMatch)):
            tex = self._branching(e, env, None)
            return tex.type, tex
        if isinstance(e, A.ELambda):
            params = []
            for name, annot in e.params:
                if annot is None:
                    self.mc.abort(
                        "E-CANNOT-INFER",
                        f"lambda parameter '{name}' needs a type annotation here",
                        e.span,
                    )
                params.append((name, self.mc.resolve_type(annot, self.tyvars)))
            inner = dict(env)
            inner.update(params)
            t_body, x_body = self.synth(e.body, inner)
            ty = fn_type([t for _, t in params], t_body)
            return ty, TLam(e.span, ty, params, x_body)
        raise AssertionError(type(e))

    def _synth_global(self, e: A.EVar, env) -> tuple[TypeTerm, TExpr]:
        mc = self.mc
        name = e.name
        ctor = mc._unique(mc.ctor_names, name, "constructor", e.span)
        if ctor is not None:
            data, cdecl = ctor
            if cdecl.fields:
                self.mc.abort(
                    "E-ARITY",
                    f"constructor {name} takes {len(cdecl.fields)} arguments; apply it",
                    e.span,
                )
            if data.params:
                self.mc.abort(
                    "E-CANNOT-INFER",
                    f"cannot infer the type arguments of {name}; annotate it",
                    e.span,
                )
            ty = Con(data.name, 0, data.module)
            return ty, TCall(e.span, ty, "ctor", (data.id, cdecl.name), [], [], [])
        fun = mc._unique(mc.fun_names, name, "function", e.span)
        if fun is not None:
            if fun.is_generic:
                self.mc.abort(
                    "E-CANNOT-INFER",
                    f"generic function {name} can only be used fully applied",
                    e.span,
                )
            ty = fn_type([t for _, t in fun.params], fun.ret)
            return ty, TGlobalFun(e.span, ty, fun.module, fun.name)
        builtin = BUILTIN_SIGS.get(name)
        if builtin is not None:
            typs, params, ret = builtin
            if typs:
                self.mc.abort(
                    "E-CANNOT-INFER",
                    f"builtin {name} is generic and must be applied directly",
                    e.span,
                )
            ty = fn_type(list(params), ret)
            return ty, TBuiltinRef(e.span, ty, name)
        if mc.req_names.get(name):
            self.mc.abort(
                "E-NAME",
                f"requirement '{name}' must be applied to arguments",
                e.span,
            )
        self.mc.abort("E-NAME", f"unknown name '{name}'", e.span)

    def _synth_app(
        self, e: A.EApp, env, expected: TypeTerm | None
    ) -> tuple[TypeTerm, TExpr]:
        if isinstance(e.fn, A.EVar) and e.fn.name not in env:
            sig = self._callee_sig(e.fn.name, e.fn.span)
            if sig is None:
                self.mc.abort("E-NAME", f"unknown name '{e.fn.name}'", e.fn.span)
            tex = self._apply_sig(sig, e.span, list(e.args), env, expected)
            return tex.type, tex
        t_fn, x_fn = self.synth(e.fn, env)
        t_fn_n = self.norm(t_fn, e.span)
        split = split_fn_type(t_fn_n)
        if split is None:
            self.mc.abort(
                "E-TYPE-MISMATCH",
                f"expression of type {render(t_fn)} is not callable",
                e.span,
            )
        params, ret = split
        if len(params) != len(e.args):
            self.mc.abort(
                "E-ARITY",
                f"function expects {len(params)} arguments, got {len(e.args)}",
                e.span,
            )
        args = [self.check(a, p, env) for a, p in zip(e.args, params)]
        return ret, TCallExpr(e.span, ret, x_fn, args)

    def _branching(self, e: A.ELet | A.EIf | A.EMatch, env, expected: TypeTerm | None) -> TExpr:
        """Check a let, if or match against `expected`. When `expected` is
        None, the first branch's type is synthesized (the let body, the
        then-block, the first arm) and the other branches are checked
        against it."""

        def branch(body: A.ExprAST, env) -> TExpr:
            nonlocal expected
            if expected is None:
                expected, tex = self.synth(body, env)
                return tex
            return self.check(body, expected, env)

        if isinstance(e, A.EIf):
            cond = self.check(e.cond, BOOL, env)
            x_then = branch(e.then, env)
            return TIf(e.span, expected, cond, x_then, branch(e.orelse, env))
        if isinstance(e, A.EMatch):
            t_scrut, x_scrut = self.synth(e.scrutinee, env)
            data, inst = self._scrutinee_data(t_scrut, e.scrutinee.span)
            arms: list[TArm] = []
            for arm in e.arms:
                arm_env, ctor_key = self._bind_arm(arm, data, inst, env)
                arms.append(TArm(ctor_key, list(arm.binders), branch(arm.body, arm_env)))
            return TMatch(e.span, expected, x_scrut, arms)
        if e.annot is not None:
            bound_t = self.mc.resolve_type(e.annot, self.tyvars)
            bound_x = self.check(e.bound, bound_t, env)
        else:
            bound_t, bound_x = self.synth(e.bound, env)
        inner = dict(env)
        if e.name != "_":
            inner[e.name] = bound_t
        x_body = branch(e.body, inner)
        return TLet(e.span, expected, e.name, bound_x, x_body)

    def _scrutinee_data(self, t: TypeTerm, span: Span) -> tuple[DataDecl, Substitution]:
        t_n = self.norm(t, span)
        con = outermost_con(t_n)
        data = None if con is None else self.mc.datas.get(f"{con.origin}.{con.name}")
        if data is not None:
            args = t_n.args if isinstance(t_n, App) else ()
            return data, Substitution({v.uid: a for v, a in zip(data.params, args)})
        self.mc.abort(
            "E-TYPE-MISMATCH",
            f"match scrutinee has type {render(t)}, which is not a sum type",
            span,
        )

    def _bind_arm(self, arm: A.EMatchArm, data: DataDecl, inst: Substitution, env):
        if arm.ctor is None:
            return dict(env), None
        cdecl = data.ctor(arm.ctor)
        if cdecl is None:
            self.mc.abort(
                "E-NAME",
                f"'{arm.ctor}' is not a constructor of {data.name}",
                arm.span,
            )
        if len(arm.binders) != len(cdecl.fields):
            self.mc.abort(
                "E-ARITY",
                f"constructor {arm.ctor} has {len(cdecl.fields)} fields, "
                f"pattern binds {len(arm.binders)}",
                arm.span,
            )
        arm_env = dict(env)
        for binder, field_t in zip(arm.binders, cdecl.fields):
            if binder != "_":
                arm_env[binder] = inst.apply(field_t)
        return arm_env, (data.id, arm.ctor)

    # ------------------------------------------------------------- checking

    def check(self, e: A.ExprAST, expected: TypeTerm, env: dict[str, TypeTerm]) -> TExpr:
        if isinstance(e, A.ELambda):
            return self._check_lambda(e, expected, env)
        if isinstance(e, (A.ELet, A.EIf, A.EMatch)):
            return self._branching(e, env, expected)
        if isinstance(e, A.EInt) and e.width is None:
            expected_n = self.norm(expected, e.span)
            bits = {U64: 64, U8: 8}.get(expected_n)
            if bits is not None:
                width = expected_n.name
                if e.value >= 2**bits:
                    self.mc.abort("E-TYPE-MISMATCH", f"literal out of range for {width}", e.span)
                return TLit(e.span, expected_n, width.lower(), e.value)
            self.mc.abort(
                "E-TYPE-MISMATCH",
                f"integer literal cannot have type {render(expected)}",
                e.span,
            )
        if isinstance(e, A.ETuple):
            expected_n = self.norm(expected, e.span)
            if (
                isinstance(expected_n, App)
                and isinstance(expected_n.head, Con)
                and expected_n.head.name == "Pair"
            ):
                x1 = self.check(e.items[0], expected_n.args[0], env)
                x2 = self.check(e.items[1], expected_n.args[1], env)
                return TTuple(e.span, expected_n, x1, x2)
        if isinstance(e, A.EApp) and isinstance(e.fn, A.EVar) and e.fn.name not in env:
            sig = self._callee_sig(e.fn.name, e.fn.span)
            if sig is None:
                self.mc.abort("E-NAME", f"unknown name '{e.fn.name}'", e.fn.span)
            tex = self._apply_sig(sig, e.span, list(e.args), env, expected)
            self.require_equal(tex.type, expected, e.span, "this expression")
            return tex
        if isinstance(e, A.EVar) and e.name not in env:
            ctor = self.mc.ctor_names.get(e.name)
            if ctor and len(ctor) == 1 and not ctor[0][1].fields:
                sig = self._callee_sig(e.name, e.span)
                tex = self._apply_sig(sig, e.span, [], {}, expected)
                self.require_equal(tex.type, expected, e.span, "this expression")
                return tex
        if isinstance(e, A.EAnnot):
            ty = self.mc.resolve_type(e.annot, self.tyvars)
            self.require_equal(ty, expected, e.span, "annotated expression")
            return self.check(e.expr, ty, env)
        t_found, tex = self.synth(e, env)
        self.require_equal(t_found, expected, e.span, "this expression")
        return tex

    def _check_lambda(self, e: A.ELambda, expected: TypeTerm, env) -> TExpr:
        expected_n = self.norm(expected, e.span)
        split = split_fn_type(expected_n)
        if split is None:
            self.mc.abort(
                "E-TYPE-MISMATCH",
                f"lambda cannot have non-function type {render(expected)}",
                e.span,
            )
        want_params, want_ret = split
        if len(want_params) != len(e.params):
            self.mc.abort(
                "E-ARITY",
                f"lambda takes {len(e.params)} parameters but its type wants "
                f"{len(want_params)}",
                e.span,
            )
        params = []
        inner = dict(env)
        for (name, annot), want in zip(e.params, want_params):
            ty = want
            if annot is not None:
                declared = self.mc.resolve_type(annot, self.tyvars)
                self.require_equal(declared, want, e.span, f"lambda parameter '{name}'")
                ty = declared
            params.append((name, ty))
            inner[name] = ty
        x_body = self.check(e.body, want_ret, inner)
        return TLam(e.span, expected_n, params, x_body)


def infer_expr(
    e: A.ExprAST,
    env: dict[str, TypeTerm],
    givens: list[ConstraintTerm],
    mc: ModuleChecker,
    owner: str = "expr",
) -> tuple[TypeTerm, TExpr]:
    """Infer one expression inside an already-checked module context."""
    rigid = frozenset(v.uid for v in free_vars(list(givens) + list(env.values())))
    tyvars = {v.name: v for t in env.values() for v in t.fvs}
    checker = ExprChecker(mc, tyvars=tyvars, rigid=rigid, givens=givens, owner=owner)
    return checker.synth(e, dict(env))
