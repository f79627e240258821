"""Name resolution, declaration well-formedness, and type checking.

Checking is bidirectional and deliberately local: generics exist only at
declaration heads, and type arguments of generic calls are found by one-way
matching of parameter types against argument types, with annotations and the
expected result type filling the rest. Each expression class has one rule
(`RULES`) that takes the type its context expects, or None to synthesize one;
checking is that rule followed by one comparison with the expected type.
What a declaration says of itself is built once per program, as sema files it
in the index: a callee's signature with its plan (`decls.CalleeSig`), a
requirement's plan for model bodies and a generic model's head plan. A module
looks each global name up once (`ModuleChecker.callee`), the same way whether
it is called or not, and checks each body against those stored facts.

Every constraint discharged inside a body is recorded with its resolution
trace; the records feed the `explain` command, the stability analysis, and
dictionary-passing elaboration.
"""

from __future__ import annotations

from itertools import repeat
from operator import attrgetter

from . import ast as A
from .coherence import CoherencePolicy
from .decls import (
    GROUND,
    PATTERN,
    CalleeSig,
    CheckedModule,
    ConceptDecl,
    CtorDecl,
    DataDecl,
    FunDecl,
    GoalRecord,
    Index,
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
    instantiate_context,
)
from .diagnostics import Abort, Diagnostic, Related, Span
from .resolver import DEFAULT_DEPTH, Goal, Resolution, Resolver
from .std import BUILTIN_SIGS
from .types import (
    BOOL,
    BUILTIN_CONS,
    F64,
    STD,
    STRING,
    U64,
    U8,
    UNIT,
    App,
    Assoc,
    Conf,
    ConstraintTerm,
    Eq,
    NormDiverge,
    PAIR,
    Substitution,
    TypeTerm,
    Var,
    fn_type,
    fresh_uid,
    normalize,
    outermost_con,
    pair_type,
    render,
    render_constraint,
    split_fn_type,
)


def check_module(
    ast: A.ModuleAST,
    imports: list[CheckedModule],
    index: Index,
    policy: CoherencePolicy,
    depth: int = DEFAULT_DEPTH,
) -> tuple[CheckedModule, list[Diagnostic]]:
    """Check one module against its (already checked) direct imports, filing
    its declarations in the program's `index`."""
    return ModuleChecker(ast, imports, index, policy, depth).run()


class ModuleChecker:
    def __init__(
        self,
        ast: A.ModuleAST,
        imports: list[CheckedModule],
        index: Index,
        policy: CoherencePolicy,
        depth: int = DEFAULT_DEPTH,
    ):
        self.ast = ast
        self.policy = policy
        self.depth = depth
        self.index = index
        self.module = CheckedModule(name=ast.name, imports=list(ast.imports), span=ast.span)
        self.module.visible = frozenset((STD, ast.name)).union(*(m.visible for m in imports))
        self.diags: list[Diagnostic] = []

        # Each global name is looked up once per module, the first time it is used.
        self.callees: dict[str, CalleeSig] = {}  # filled by `callee`
        self.concepts: dict[str, ConceptDecl] = {}  # filled by `lookup_concept`
        self.cons = dict(BUILTIN_CONS)  # type constructors; a data type's filled on first use

    # ------------------------------------------------------------ driver

    def run(self) -> tuple[CheckedModule, list[Diagnostic]]:
        by_class = {A.ConceptAST: [], A.DataAST: [], A.ModelAST: [], A.FunAST: []}
        for d in self.ast.decls:
            by_class[type(d)].append(d)
        concept_asts, data_asts, model_asts, fun_asts = by_class.values()
        concept_asts, data_asts, fun_asts = self._first_of_each_name(
            concept_asts, data_asts, fun_asts
        )

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
                self.index.add_model(model)

        self.module.world = ModelWorld(self.index, self.module.visible, home=self.module.name)
        self.resolver = Resolver(self.module.world, self.policy, self.depth)  # of bodies with no givens

        fun_decls = [self.attempt(self._build_fun_header, f) for f in fun_asts]
        for decl in fun_decls:
            if decl is not None:
                self.module.funs[decl.name] = decl
                self.index.add_fun(decl)

        plain = ExprChecker(self, {}, frozenset(), [])  # see `_checker`; not kept, as it refers to self
        for model in self.module.models:
            self._check_model_obligations_and_bodies(model, model_asts[model.index], plain)

        for decl, fast in zip(fun_decls, fun_asts):
            if decl is not None:
                self.attempt(self._check_fun_body, decl, fast, plain)

        return self.module, self.diags

    def _first_of_each_name(self, concepts, datas, funs):
        """The declarations without those whose name an earlier one of the
        same level, type or function, has taken: each of those is an E-NAME
        and is neither filed nor checked."""
        later = set()
        types = sorted(concepts + datas, key=attrgetter("span.lo"))  # in source order
        for decls, what in ((types, "type-level"), (funs, "function")):
            first: dict[str, Span] = {}
            for d in decls:
                if d.name in first:
                    self.report(
                        "E-NAME",
                        f"duplicate {what} name '{d.name}' in module {self.ast.name}",
                        d.span,
                        related=(Related(first[d.name], "first declaration"),),
                    )
                    later.add(id(d))
                else:
                    first[d.name] = d.span
        if not later:
            return concepts, datas, funs
        return [[d for d in decls if id(d) not in later] for decls in (concepts, datas, funs)]

    # ------------------------------------------------------------ diagnostics

    def diag(self, code: str, msg: str, span: Span, related=()) -> Diagnostic:
        """The one constructor of sema diagnostics: each blames this module."""
        return Diagnostic(code, msg, span, module=self.ast.name, related=related)

    def report(self, code: str, msg: str, span: Span, related=()):
        self.diags.append(self.diag(code, msg, span, related))

    def abort(self, code: str, msg: str, span: Span):
        raise Abort(self.diag(code, msg, span))

    def attempt(self, build, *args):
        """`build(*args)`, or None once its Abort diagnostic is recorded."""
        try:
            return build(*args)
        except Abort as exc:
            self.diags.append(exc.diagnostic)
            return None

    # ------------------------------------------------------------ declarations

    def _predeclare_data(self, dast: A.DataAST) -> DataDecl:
        params = [Var(p, fresh_uid()) for p in dast.params]
        decl = DataDecl(self.module.name, dast.name, params, [], dast.span)
        self.index.add_data(decl)
        return decl

    def _predeclare_concept(self, cast: A.ConceptAST) -> ConceptDecl:
        params = [Var(p, fresh_uid()) for p in cast.params]
        decl = ConceptDecl(self.module.name, cast.name, params, [], list(cast.assoc_names), {}, [], cast.span)
        self.index.add_concept(decl)
        return decl

    def _fill_data(self, decl: DataDecl, dast: A.DataAST):
        tyvars = {v.name: v for v in decl.params}
        seen = set()
        for ctor in dast.ctors:
            if ctor.name in seen:
                self.report("E-NAME", f"duplicate constructor '{ctor.name}'", ctor.span)
                continue
            seen.add(ctor.name)
            try:
                fields = [self.resolve_type(f, tyvars) for f in ctor.fields]
            except Abort as exc:
                self.diags.append(exc.diagnostic)
                continue
            decl.ctors.append(CtorDecl(ctor.name, fields, ctor.span))
            self.index.add_ctor(decl, decl.ctors[-1])

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
                msg = f"duplicate associated type '{member}' in concept {decl.name}"
                self.report("E-NAME", msg, cast.span)
            seen_assoc.add(member)
        for req in cast.requirements:
            if req.name in decl.requirements:
                msg = f"duplicate requirement '{req.name}' in concept {decl.name}"
                self.report("E-NAME", msg, req.span)
                continue
            sig = self.attempt(self._req_sig, req, decl.params, tyvars)
            if sig is None:
                continue
            decl.requirements[req.name] = sig
            decl.req_order.append(req.name)
            self.index.add_req(decl, sig)

    def _req_sig(self, req: A.ReqSigAST, concept_params: list[Var], tyvars: dict[str, Var]) -> ReqSig:
        params = [(n, self.resolve_type(t, tyvars)) for n, t in req.params]
        return ReqSig(req.name, params, self.resolve_type(req.ret, tyvars), req.span, concept_params)

    def _check_refinement_cycles(self, local_concepts: list[ConceptDecl]):
        def supers_of(cid: str) -> list[str]:
            c = self.index.concepts.get(cid)
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
            msg = f"concept {concept.name} expects {len(concept.params)} head types, got {len(mast.head)}"
            self.abort("E-ARITY", msg, mast.span)
        implicit: dict[str, Var] = {}
        head = [self.resolve_type(t, {}, implicit) for t in mast.head]
        head_vars = list(implicit.values())
        context = [self.resolve_constraint(c, {}, implicit) for c in mast.context]
        model = ModelDecl(self.module.name, index, mast.name, concept.id, head, head_vars, context, {},
                          mast.span)
        if self.policy.kind == "scoped" and model.name is None:
            self.report("E-NEEDS-NAME", "the scoped policy requires every model to be named", mast.span)
        for c in context:
            for v in c.fvs:
                if v not in head_vars:
                    msg = f"constraint variable '{v.name}' does not occur in the model head"
                    self.report("E-NAME", msg, mast.span)
        # Associated-type bindings: each declared member exactly once.
        bound = set()
        for bind in mast.assoc_binds:
            if bind.member not in concept.assoc_names:
                msg = f"concept {concept.name} has no associated type '{bind.member}'"
                self.report("E-NAME", msg, bind.span)
                continue
            if bind.member in bound:
                self.report("E-NAME", f"associated type '{bind.member}' bound twice", bind.span)
                continue
            bound.add(bind.member)
            rhs = self.resolve_type(bind.rhs, {v.name: v for v in model.vars})
            for v in rhs.fvs:
                if v not in head_vars:
                    msg = f"binding variable '{v.name}' does not occur in the model head"
                    self.report("E-NAME", msg, bind.span)
            model.assoc[bind.member] = rhs
        for member in concept.assoc_names:
            if member not in bound:
                msg = f"model {model.display} leaves associated type '{member}' of {concept.name} unbound"
                self.report("E-UNBOUND-ASSOC", msg, mast.span)
        # Requirement coverage by name.
        given = {b.name for b in mast.bodies}
        for req in concept.req_order:
            if req not in given:
                msg = f"model {model.display} does not implement requirement '{req}' of {concept.name}"
                self.report("E-MISSING-REQ", msg, mast.span)
        for b in mast.bodies:
            if b.name not in concept.requirements:
                self.report("E-NAME", f"concept {concept.name} has no requirement '{b.name}'", b.span)
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

    def _check_model_obligations_and_bodies(self, model: ModelDecl, mast: A.ModelAST,
                                            plain: ExprChecker):
        """The superclass obligations of `model`, then its bodies, each against its requirement's
        types as the concept's plan instantiates them (`ConceptDecl.instantiate_req`)."""
        concept = self.index.concepts[model.concept]
        givens = model.context
        if concept.supers:
            inst_supers = concept.instantiate(model.head).apply(concept.supers)
            givens = givens + inst_supers
            rigid = frozenset(v.uid for v in model.vars)
            resolver = Resolver(self.module.world, self.policy, self.depth, model.context)
            for sup in inst_supers:
                res, trace, diags = resolver.resolve(Goal(sup, model.span))
                record = GoalRecord(model.span, sup, trace, res)
                self.module.goal_log.append(record)
                self.report_goal(res, diags, sup, rigid, concept.name)
                model.superclass_resolutions.append(res)

        checker = self._checker(model.vars, givens, plain)
        for body in mast.bodies:
            req = concept.requirements.get(body.name)
            if req is None:
                continue  # already reported
            if len(body.params) != len(req.params):
                msg = f"requirement '{body.name}' takes {len(req.params)} parameters"
                self.report("E-ARITY", msg, body.span)
                continue
            inst = concept.instantiate_req(req, model)  # the parameters' types, then the result's
            checker.owner, checker.records = f"model:{model.uid}.{body.name}", []
            try:
                declared = [(n, self.resolve_type(t, checker.tyvars)) for n, t in body.params]
                for (dn, dt), st in zip(declared, inst):
                    checker.require_equal(dt, st, body.span, f"parameter '{dn}'")
                declared_ret = self.resolve_type(body.ret, checker.tyvars)
                checker.require_equal(declared_ret, inst[-1], body.span, "return type")
                model.bodies[body.name] = declared, checker.check(body.body, declared_ret, dict(declared))
                model.body_goal_records[body.name] = checker.records
            except Abort as exc:
                self.diags.append(exc.diagnostic)

    def _check_fun_body(self, decl: FunDecl, fast: A.FunAST, plain: ExprChecker):
        checker = self._checker(decl.typarams, decl.context, plain)
        checker.owner, checker.records = f"fn:{decl.name}", []
        decl.body = checker.check(fast.body, decl.ret, dict(decl.params))
        decl.goal_records = checker.records

    def _checker(self, tyvars: list[Var], givens: list[ConstraintTerm], plain: ExprChecker):
        """The checker of the bodies of a declaration over `tyvars`, rigid there, under `givens`:
        `plain`, the module's one, when it has neither. Each body sets its owner and records."""
        if not tyvars and not givens:
            return plain
        return ExprChecker(self, {v.name: v for v in tyvars}, frozenset(v.uid for v in tyvars), givens)

    # ------------------------------------------------------------ lookups

    def names(self, kind: str, name: str) -> list:
        """The declarations of `kind` named `name` that this module sees, in
        filing order; callers only read the list. Walks the modules that
        filed the name or the visible ones, whichever are fewer, so that
        siblings reusing a name add nothing to a lookup."""
        groups = self.index.by_name.get((kind, name))
        if groups is None:
            return ()
        visible = self.module.visible
        if len(groups) == 1:  # most names are filed by one module
            for module in groups:
                return groups[module] if module in visible else ()
        if len(groups) <= len(visible):
            modules = [module for module in groups if module in visible]
        else:
            modules = [module for module in visible if module in groups]
            if len(modules) > 1:  # back into filing order, which `groups` keeps
                modules.sort(key=list(groups).index)
        return [entry for module in modules for entry in groups[module]]

    def lookup_concept(self, name: str, span: Span) -> ConceptDecl:
        concept = self.concepts.get(name)
        if concept is None:
            hits = self.names("concept", name)
            if not hits:
                self.abort("E-NAME", f"unknown concept '{name}'", span)
            if len(hits) > 1:
                mods = ", ".join(sorted(c.module for c in hits))
                self.abort("E-NAME", f"concept name '{name}' is ambiguous (declared in {mods})", span)
            concept = self.concepts[name] = hits[0]
        return concept

    def _unique(self, kind: str, name: str, what: str, span: Span):
        hits = self.names(kind, name)
        if not hits:
            return None
        if len(hits) > 1:
            self.abort("E-NAME", f"{what} name '{name}' is ambiguous", span)
        return hits[0]

    def callee(self, name: str, span: Span) -> CalleeSig:
        """The signature of the global `name` on a miss of `callees`, which keeps it: the one
        function, requirement or constructor named `name` that this module sees, as the index filed
        it, else the builtin's. Only bodies ask, once every header is indexed; an ambiguous or
        unknown name aborts at each use. A recursive call meets its own variables in the caller's
        types too; `ExprChecker._apply_sig` keeps those rigid."""
        fun = self._unique("fun", name, "function", span)
        req = self._unique("req", name, "requirement", span)
        ctor = self._unique("ctor", name, "constructor", span)
        if (fun is not None) + (req is not None) + (ctor is not None) > 1:
            self.abort("E-NAME", f"name '{name}' is ambiguous in this scope", span)
        sig = fun or req or ctor or self.index.builtins.get(name)
        if sig is None:
            if name not in BUILTIN_SIGS:
                self.abort("E-NAME", f"unknown name '{name}'", span)
            tyvars, params, ret = BUILTIN_SIGS[name]
            sig = self.index.builtins[name] = CalleeSig("builtin", name, tyvars, params, ret, [], (name,))
        self.callees[name] = sig
        return sig

    # ------------------------------------------------------------ types

    def resolve_type(self, t: A.TypeExprAST, tyvars: dict[str, Var],
                     implicit: dict[str, Var] | None = None) -> TypeTerm:
        if type(t) is A.TName:
            base = self._resolve_base_name(t, tyvars, implicit)
            if t.projections:  # a model path (`kb.Key`, an Assoc) comes with its first projection
                for member in t.projections[1:] if type(base) is Assoc else t.projections:
                    base = self.make_assoc(base, member, t.span)
            return base
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
        assert isinstance(t, A.TProj)
        return self.make_assoc(self.resolve_type(t.base, tyvars, implicit), t.member, t.span)

    def _resolve_base_name(
        self, t: A.TName, tyvars: dict[str, Var], implicit: dict[str, Var] | None
    ) -> TypeTerm:
        name = t.base
        if name in tyvars:
            if t.args:
                msg = f"type variable '{name}' cannot be applied to arguments"
                self.abort("E-ARITY", msg, t.span)
            return tyvars[name]
        con = self.cons.get(name)
        if con is None:
            data = self._unique("data", name, "data type", t.span)
            if data is not None:
                con = self.cons[name] = data.con
        if con is not None:
            args = [self.resolve_type(a, tyvars, implicit) for a in t.args] if t.args else ()
            if len(args) != con.arity:
                msg = f"type constructor {con.name} expects {con.arity} arguments, got {len(args)}"
                self.abort("E-ARITY", msg, t.span)
            return App(con, tuple(args)) if args else con
        # A named model as a projection path (scoped policy syntax).
        if t.projections and self.policy.kind == "scoped":
            model = self._unique("model", name, "model", t.span)
            if model is not None:
                concept = self.index.concepts[model.concept]
                member = t.projections[0]
                if member not in concept.assoc_names:
                    msg = f"concept {concept.name} has no associated type '{member}'"
                    self.abort("E-NAME", msg, t.span)
                return Assoc(concept.id, member, model.head, model.path)
        if implicit is not None:
            if t.args:
                self.abort("E-NAME", f"unknown type constructor '{name}'", t.span)
            if name not in implicit:
                implicit[name] = Var(name, fresh_uid())
            return implicit[name]
        self.abort("E-NAME", f"unknown type '{name}'", t.span)

    def make_assoc(self, subject: TypeTerm, member: str, span: Span) -> TypeTerm:
        owners = [
            c for c in self.names("assoc", member) if len(c.params) == 1
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
        what: str,
    ):
        """Report a goal's diagnostics, blaming this module: all of them when
        the goal failed, its warnings when it resolved. Resolution failures
        on rigid subjects are missing assumptions."""
        for d in diags:
            if res is not None and d.severity != "warning":
                continue
            code, msg = d.code, d.message
            if code == "E-NO-MODEL" and any(v.uid in rigid for v in constraint.fvs):
                code = "E-TYPE-MISMATCH"
                msg += (
                    f"; the constraint {render_constraint(constraint)} is not entailed by the "
                    f"context of {what}"
                )
            self.report(code, msg, d.span, d.related)


# ---------------------------------------------------------------- expressions


def _unbound(t: TypeTerm, bound: dict, flexible: frozenset[int]) -> bool:
    """Whether `t` has a flexible variable that `bound` does not bind yet.
    Bound values are not looked into: a recursive call may bind its own
    variable T to a type of the caller that mentions the rigid T."""
    for v in t.fvs:
        if v.uid in flexible and v.uid not in bound:
            return True
    return False


_WAITS = frozenset({A.ELambda, A.EMatch, A.EIf, A.ELet})  # see ExprChecker._is_deferred


class ExprChecker:
    """Checks a declaration's bodies one at a time; `owner` and `records` are
    the current body's. Each expression class has one rule in `RULES`, called
    with the type the context expects, or None to synthesize one."""

    def __init__(self, mc: ModuleChecker, tyvars: dict[str, Var], rigid: frozenset[int],
                 givens: list[ConstraintTerm]):
        self.mc = mc
        self.tyvars = tyvars
        self.rigid = rigid
        self.owner = ""
        self.records: list[GoalRecord] = []
        self.goal_log = mc.module.goal_log
        self.resolver = Resolver(mc.module.world, mc.policy, mc.depth, givens) if givens else mc.resolver
        self.eq_rules = self.resolver.eq_rules

    def synth(self, e: A.ExprAST, env: dict[str, TypeTerm]) -> TExpr:
        return RULES[type(e)](self, e, env, None)

    def check(self, e: A.ExprAST, expected: TypeTerm, env: dict[str, TypeTerm]) -> TExpr:
        tex = RULES[type(e)](self, e, env, expected)
        if tex.type is not expected or self.eq_rules or expected.has_assoc:  # as in require_equal
            self.require_equal(tex.type, expected, e.span, "this expression")
        return tex

    def _branch(self, e: A.ExprAST, env, expected: TypeTerm | None) -> tuple[TExpr, TypeTerm]:
        """`e` checked against `expected`, or synthesized when that is None,
        and the type the branches after it are checked against."""
        if expected is None:
            tex = self.synth(e, env)
            return tex, tex.type
        return self.check(e, expected, env), expected

    # ------------------------------------------------------------- utilities

    def norm(self, t: TypeTerm, span: Span) -> TypeTerm:
        if not t.has_assoc and not self.eq_rules:
            return t  # nothing can rewrite it
        try:
            return normalize(t, self.eq_rules, self.mc.module.world)
        except NormDiverge:
            self.mc.abort(
                "E-NORM-DIVERGE",
                f"normalization of {render(t)} did not terminate",
                span,
            )

    def require_equal(self, found: TypeTerm, expected: TypeTerm, span: Span, what: str):
        """E-TYPE-MISMATCH unless the normal forms agree. One interned term is
        equal to itself unless normalizing it diverges, which takes an
        equality given (`T == Option[T]`) or a projection."""
        if found is expected and not self.eq_rules and not found.has_assoc:
            return
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
        res, trace, diags = self.resolver.resolve(Goal(constraint, span))
        record = GoalRecord(span, constraint, trace, res)
        self.records.append(record)
        self.goal_log.append(record)
        if diags:
            self.mc.report_goal(res, diags, constraint, self.rigid, self.owner)
        return res

    # ------------------------------------------------------------- calls

    def _is_deferred(self, e: A.ExprAST, env) -> bool:
        """Whether argument `e` needs its parameter's type to be checked, so
        that it waits until the other arguments have bound it."""
        kind = type(e)
        if kind is A.EVar:
            if e.name in env:
                return False
            return (self.mc.callees.get(e.name) or self.mc.callee(e.name, e.span)).deferred
        if kind is A.EInt:
            return e.width is None
        return kind in _WAITS

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
        if not _unbound(pat, binding.bindings, flexible):
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

    def _absorb(self, sig: CalleeSig, bound: dict, pattern: TypeTerm, target: TypeTerm,
                where: Span, arg: int | None):
        """Match `pattern`, parameter `arg`'s type or the result's (`arg` None), onto `target`,
        extending `bound`. On a mismatch, a parameter is expected of an argument, a result of its use."""
        binding = Substitution(bound)
        if not self._match_lenient(pattern, target, binding, sig.flexible, where):
            pat = binding.apply(pattern)
            sides = [(pat, self.norm(pat, where)), (target, self.norm(target, where))]
            what = f"argument {arg + 1} of {sig.display}" if arg is not None else f"result of {sig.display}"
            self.mismatch(what, *(sides if arg is not None else sides[::-1]), where)

    def _apply_sig(self, sig: CalleeSig, span: Span, args: tuple[A.ExprAST, ...],
                   env: dict[str, TypeTerm], expected: TypeTerm | None) -> TExpr:
        """`expected` binds the result's variables; then, as `sig.plans` says, the arguments that bind
        the others are synthesized, in order, the rest checked, in order, and the goals discharged."""
        if len(args) != len(sig.params):
            self.mc.abort("E-ARITY", f"{sig.display} takes {len(sig.params)} arguments, got {len(args)}", span)
        if not sig.tyvars:
            # nothing to infer: each argument is checked against its parameter
            checked = list(map(self.check, args, sig.params, repeat(env))) if args else []
            resolutions = list(map(self.discharge, sig.context, repeat(span))) if sig.context else []
            return TCall(span, sig.ret, sig.kind, sig.target, [], resolutions, checked)
        bound, params, plans = {}, sig.params, sig.plans  # the binding, of `sig.tyvars` only
        checked: list[TExpr | None] = [None] * len(args)
        settled = 0  # arguments synthesized to bind a variable, which need no check
        if expected is not None and not sig.ret_ground:
            self._absorb(sig, bound, sig.ret, expected, span, None)
        for i, plan in enumerate(plans):
            if plan is GROUND or (plan in bound if plan is not PATTERN else
                                  not _unbound(params[i], bound, sig.flexible)):
                continue
            # a bare name is looked up only when it would be synthesized next
            if self._is_deferred(args[i], env):
                continue
            checked[i] = tex = RULES[type(args[i])](self, args[i], env, None)  # synthesized
            if plan is PATTERN:
                self._absorb(sig, bound, params[i], tex.type, args[i].span, i)
            else:
                bound[plan] = tex.type
                settled += not tex.type.has_assoc
        if len(bound) < len(sig.tyvars):
            names = ", ".join(v.name for v in sig.tyvars if v.uid not in bound)
            msg = f"cannot infer type parameter(s) {names} of {sig.display}; add an annotation"
            self.mc.abort("E-CANNOT-INFER", msg, span)
        for i, plan in enumerate(plans) if settled < len(args) or self.eq_rules else ():
            want = params[i] if plan is GROUND else bound[plan] if plan is not PATTERN else \
                Substitution(bound).apply(params[i])
            tex = checked[i]
            if tex is None:
                checked[i] = self.check(args[i], want, env)
            else:  # validates projections that were undetermined during matching
                self.require_equal(tex.type, want, args[i].span, f"argument {i + 1} of {sig.display}")
        resolutions = list(map(self.discharge, instantiate_context(sig.context, sig.goals, bound),
                               repeat(span))) if sig.context else []
        result = sig.ret if sig.ret_ground else Substitution(bound).apply(sig.ret)
        if sig.kind == "requirement":
            return TReqCall(span, result, sig.target[1], resolutions[0], checked)
        # constructors and builtins have no context, so no resolutions
        return TCall(span, result, sig.kind, sig.target, [bound[v.uid] for v in sig.tyvars],
                     resolutions, checked)

    # ------------------------------------------------------------- rules

    def _var(self, e: A.EVar, env, expected: TypeTerm | None) -> TExpr:
        if e.name in env:
            return TVarRef(e.span, env[e.name], e.name)
        sig = self.mc.callees.get(e.name) or self.mc.callee(e.name, e.span)
        if sig.kind == "ctor" and not sig.params and not sig.tyvars:
            return TCall(e.span, sig.ret, "ctor", sig.target, [], [], [])
        if sig.kind == "ctor":
            if sig.params:
                self.mc.abort(
                    "E-ARITY",
                    f"constructor {e.name} takes {len(sig.params)} arguments; apply it",
                    e.span,
                )
            if expected is None and sig.tyvars:
                self.mc.abort(
                    "E-CANNOT-INFER",
                    f"cannot infer the type arguments of {e.name}; annotate it",
                    e.span,
                )
            return self._apply_sig(sig, e.span, (), env, expected)
        if sig.kind == "requirement":
            self.mc.abort("E-NAME", f"requirement '{e.name}' must be applied to arguments", e.span)
        if sig.tyvars or sig.context:
            self.mc.abort(
                "E-CANNOT-INFER",
                f"generic function {e.name} can only be used fully applied"
                if sig.kind == "fun"
                else f"builtin {e.name} is generic and must be applied directly",
                e.span,
            )
        ty = fn_type(sig.params, sig.ret)
        if sig.kind == "fun":
            return TGlobalFun(e.span, ty, *sig.target)
        return TBuiltinRef(e.span, ty, e.name)

    def _int(self, e: A.EInt, env, expected: TypeTerm | None) -> TExpr:
        if e.width is not None:
            ty = U64 if e.width == "U64" else U8
        elif expected is None:
            self.mc.abort(
                "E-CANNOT-INFER",
                "integer literal needs a width (write e.g. `0:U64` or `0:U8`)",
                e.span,
            )
        else:
            ty = self.norm(expected, e.span)
            bits = {U64: 64, U8: 8}.get(ty)
            if bits is None:
                self.mc.abort(
                    "E-TYPE-MISMATCH",
                    f"integer literal cannot have type {render(expected)}",
                    e.span,
                )
            if e.value >= 2**bits:
                self.mc.abort("E-TYPE-MISMATCH", f"literal out of range for {ty.name}", e.span)
        return TLit(e.span, ty, ty.name.lower(), e.value)

    def _app(self, e: A.EApp, env, expected: TypeTerm | None) -> TExpr:
        if type(e.fn) is A.EVar and e.fn.name not in env:
            sig = self.mc.callees.get(e.fn.name) or self.mc.callee(e.fn.name, e.fn.span)
            return self._apply_sig(sig, e.span, e.args, env, expected)
        x_fn = self.synth(e.fn, env)
        split = split_fn_type(self.norm(x_fn.type, e.span))
        if split is None:
            self.mc.abort(
                "E-TYPE-MISMATCH",
                f"expression of type {render(x_fn.type)} is not callable",
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
        return TCallExpr(e.span, ret, x_fn, args)

    def _tuple(self, e: A.ETuple, env, expected: TypeTerm | None) -> TExpr:
        wants = (None, None)
        if expected is not None:
            expected_n = self.norm(expected, e.span)
            if isinstance(expected_n, App) and expected_n.head is PAIR:
                wants = expected_n.args
        x1, t1 = self._branch(e.items[0], env, wants[0])
        x2, t2 = self._branch(e.items[1], env, wants[1])
        return TTuple(e.span, pair_type(t1, t2), x1, x2)

    def _annot(self, e: A.EAnnot, env, expected: TypeTerm | None) -> TExpr:
        ty = self.mc.resolve_type(e.annot, self.tyvars)
        if expected is not None:
            self.require_equal(ty, expected, e.span, "annotated expression")
        tex = self.check(e.expr, ty, env)
        tex.type = ty  # the annotated expression has the type as written
        return tex

    def _lambda(self, e: A.ELambda, env, expected: TypeTerm | None) -> TExpr:
        want_params, want_ret = [None] * len(e.params), None
        if expected is not None:
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
        for (name, annot), want in zip(e.params, want_params):
            if annot is None:
                if want is None:
                    self.mc.abort(
                        "E-CANNOT-INFER",
                        f"lambda parameter '{name}' needs a type annotation here",
                        e.span,
                    )
                params.append((name, want))
                continue
            declared = self.mc.resolve_type(annot, self.tyvars)
            if want is not None:
                self.require_equal(declared, want, e.span, f"lambda parameter '{name}'")
            params.append((name, declared))
        inner = dict(env)
        inner.update(params)
        x_body, t_body = self._branch(e.body, inner, want_ret)
        ty = fn_type([t for _, t in params], t_body) if expected is None else expected_n
        return TLam(e.span, ty, params, x_body)

    def _let(self, e: A.ELet, env, expected: TypeTerm | None) -> TExpr:
        """A chain of lets, each the body of the one before, in one loop.
        Each name is bound in `env` itself and unbound on the way out, so a
        chain costs one dict and no Python frame per let. An inner let has
        the type of the chain's body, so it is not checked against
        `expected` again."""
        lets, shadowed = [], []
        try:
            while type(e) is A.ELet:
                annot = None if e.annot is None else self.mc.resolve_type(e.annot, self.tyvars)
                bound_x, bound_t = self._branch(e.bound, env, annot)
                lets.append((e, bound_x))
                if e.name != "_":  # no type is None
                    shadowed.append((e.name, env.get(e.name)))
                    env[e.name] = bound_t
                e = e.body
            x_body, expected = self._branch(e, env, expected)
        finally:
            for name, old in reversed(shadowed):
                if old is None:
                    del env[name]
                else:
                    env[name] = old
        for let, bound_x in reversed(lets):
            x_body = TLet(let.span, expected, let.name, bound_x, x_body)
        return x_body

    def _if(self, e: A.EIf, env, expected: TypeTerm | None) -> TExpr:
        cond = self.check(e.cond, BOOL, env)
        x_then, expected = self._branch(e.then, env, expected)
        x_else, _ = self._branch(e.orelse, env, expected)
        return TIf(e.span, expected, cond, x_then, x_else)

    def _match(self, e: A.EMatch, env, expected: TypeTerm | None) -> TExpr:
        x_scrut = self.synth(e.scrutinee, env)
        data, inst = self._scrutinee_data(x_scrut.type, e.scrutinee.span)
        arms: list[TArm] = []
        for arm in e.arms:
            arm_env, ctor_key = self._bind_arm(arm, data, inst, env)
            x_body, expected = self._branch(arm.body, arm_env, expected)
            arms.append(TArm(ctor_key, list(arm.binders), x_body))
        return TMatch(e.span, expected, x_scrut, arms)

    def _scrutinee_data(self, t: TypeTerm, span: Span) -> tuple[DataDecl, Substitution]:
        t_n = self.norm(t, span)
        con = outermost_con(t_n)
        data = None if con is None else self.mc.index.datas.get(f"{con.origin}.{con.name}")
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


# Expression class -> its rule: (checker, node, env, expected type or None to
# synthesize) -> the typed node.
RULES = {
    A.EVar: ExprChecker._var,
    A.EInt: ExprChecker._int,
    A.EFloat: lambda self, e, env, expected: TLit(e.span, F64, "f64", e.lexeme),
    A.EString: lambda self, e, env, expected: TLit(e.span, STRING, "string", e.value),
    A.EBool: lambda self, e, env, expected: TLit(e.span, BOOL, "bool", e.value),
    A.EUnit: lambda self, e, env, expected: TLit(e.span, UNIT, "unit", ()),
    A.EApp: ExprChecker._app,
    A.ETuple: ExprChecker._tuple,
    A.EAnnot: ExprChecker._annot,
    A.ELambda: ExprChecker._lambda,
    A.ELet: ExprChecker._let,
    A.EIf: ExprChecker._if,
    A.EMatch: ExprChecker._match,
}

