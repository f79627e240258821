"""The dictionary-passing core calculus and the elaborator targeting it.

Elaboration makes implicit resolution explicit:

  * each constrained function gains one leading dictionary parameter per
    conformance constraint (equality constraints are erased after checking);
  * each model becomes a dictionary value, itself a function of the
    dictionaries its own context demands;
  * every resolution tree becomes the dictionary expression that builds the
    witness, and requirement calls become record projections.

`core_check` re-checks elaborated programs declaratively; it exists to catch
elaborator bugs, so any failure is reported as E-CORE-ILLTYPED.
"""

from __future__ import annotations

from .decls import (
    ConceptDecl,
    FunDecl,
    ModelDecl,
    ModelWorld,
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
from .diagnostics import Diagnostic, Span
from .linker import LinkedProgram
from .resolver import EqLeaf, GivenLeaf, ModelNode
from .std import BUILTIN_SIGS
from .types import (
    BOOL,
    F64,
    STRING,
    U64,
    U8,
    UNIT,
    App,
    Con,
    Conf,
    ConstraintTerm,
    Eq,
    Substitution,
    TypeTerm,
    Var,
    fn_type,
    match_many,
    normalize,
    outermost_con,
    pair_type,
    render,
    split_fn_type,
)


# ---------------------------------------------------------------- core terms


class CoreExpr:
    __slots__ = ()


class CVar(CoreExpr):
    __slots__ = ("name",)
    def __init__(self, name: str):
        self.name = name


class CGlobal(CoreExpr):
    __slots__ = ("name",)
    def __init__(self, name: str):
        self.name = name


class CBuiltin(CoreExpr):
    __slots__ = ("name",)
    def __init__(self, name: str):
        self.name = name


class CLit(CoreExpr):
    # kind: u64 | u8 | bool | string | unit | f64
    __slots__ = ("kind", "value")
    def __init__(self, kind: str, value: object):
        self.kind, self.value = kind, value


class CLam(CoreExpr):
    __slots__ = ("params", "body")
    def __init__(self, params: list[tuple[str, TypeTerm]], body: CoreExpr):
        self.params, self.body = params, body


class CApp(CoreExpr):
    __slots__ = ("fn", "args")
    def __init__(self, fn: CoreExpr, args: list[CoreExpr]):
        self.fn, self.args = fn, args


class CTyApp(CoreExpr):
    __slots__ = ("fn", "args")
    def __init__(self, fn: CoreExpr, args: list[TypeTerm]):
        self.fn, self.args = fn, args


class CDict(CoreExpr):
    """A concept dictionary: superclass dictionaries then requirement fields."""

    # bindings: associated types chosen by this model
    # tag: the originating model, for dictionary identity
    __slots__ = ("concept", "subjects", "bindings", "fields", "tag")
    def __init__(self, concept: str, subjects: list[TypeTerm], bindings: dict[str, TypeTerm],
                 fields: dict[str, CoreExpr], tag: str):
        self.concept, self.subjects, self.bindings = concept, subjects, bindings
        self.fields, self.tag = fields, tag


class CProj(CoreExpr):
    __slots__ = ("record", "field")
    def __init__(self, record: CoreExpr, field: str):
        self.record, self.field = record, field


class CCtor(CoreExpr):
    # data: data id
    __slots__ = ("data", "ctor", "tyargs", "args")
    def __init__(self, data: str, ctor: str, tyargs: list[TypeTerm], args: list[CoreExpr]):
        self.data, self.ctor, self.tyargs, self.args = data, ctor, tyargs, args


class CMatch(CoreExpr):
    # arms: (ctor | wildcard, binders, body)
    __slots__ = ("scrutinee", "arms")
    def __init__(self, scrutinee: CoreExpr, arms: list[tuple[str | None, list[str], CoreExpr]]):
        self.scrutinee, self.arms = scrutinee, arms


class CLet(CoreExpr):
    __slots__ = ("name", "bound", "body")
    def __init__(self, name: str, bound: CoreExpr, body: CoreExpr):
        self.name, self.bound, self.body = name, bound, body


class CTuple(CoreExpr):
    __slots__ = ("first", "second")
    def __init__(self, first: CoreExpr, second: CoreExpr):
        self.first, self.second = first, second


class CIf(CoreExpr):
    __slots__ = ("cond", "then", "orelse")
    def __init__(self, cond: CoreExpr, then: CoreExpr, orelse: CoreExpr):
        self.cond, self.then, self.orelse = cond, then, orelse


class CoreDef:
    # type: type of `expr` with tyvars held rigid; eq_rules: erased equality givens
    __slots__ = ("name", "tyvars", "type", "expr", "eq_rules")
    def __init__(self, name: str, tyvars: list[Var], type: TypeTerm, expr: CoreExpr,
                 eq_rules: list[Eq] | None = None):
        self.name, self.tyvars, self.type, self.expr = name, tyvars, type, expr
        self.eq_rules = [] if eq_rules is None else eq_rules


class CoreProgram:
    # world: the program's; its index holds the concepts and data types by id
    __slots__ = ("defs", "order", "entry", "world")
    def __init__(self, defs: dict[str, CoreDef], order: list[str], entry: str | None,
                 world: ModelWorld):
        self.defs, self.order, self.entry, self.world = defs, order, entry, world


def dict_con(concept: ConceptDecl) -> Con:
    return Con(f"Dict${concept.id}", len(concept.params), concept.module)


def dict_type(concept: ConceptDecl, subjects) -> TypeTerm:
    return App(dict_con(concept), tuple(subjects))


def fun_def_name(module: str, name: str) -> str:
    return f"{module}.{name}"


def model_def_name(model: ModelDecl) -> str:
    return f"dict${model.module}.{model.name or model.index}"


def concept_field_types(
    concept: ConceptDecl, subjects: tuple, concepts: dict[str, ConceptDecl]
) -> dict[str, TypeTerm]:
    """Dictionary fields of a concept at the given subjects.

    Maps each field name to its type, superclass fields ("super$j") first,
    then requirements. Types are not normalized here.
    """
    inst = concept.instantiate(list(subjects))
    fields: dict[str, TypeTerm] = {}
    for j, sup in enumerate(concept.supers):
        if isinstance(sup, Conf):
            sup_subjects = tuple(inst.apply(s) for s in sup.subjects)
            fields[f"super${j}"] = dict_type(concepts[sup.concept], sup_subjects)
    for req_name in concept.req_order:
        sig = concept.requirements[req_name]
        fields[req_name] = fn_type([inst.apply(t) for _, t in sig.params], inst.apply(sig.ret))
    return fields


# ---------------------------------------------------------------- elaboration


class Elaborator:
    def __init__(self, program: LinkedProgram):
        self.program = program
        self.world = program.world
        self.concepts = program.world.index.concepts
        self.defs: dict[str, CoreDef] = {}
        self.decls: dict[str, FunDecl | ModelDecl] = {}  # every name referenced so far
        self.order: list[str] = []  # their names, in the order they are elaborated
        # per-declaration elaboration state
        self.eq_givens: list[Eq] = []
        self.given_env: dict[int, CoreExpr] = {}

    # ------------------------------------------------------------- types

    def ty(self, t: TypeTerm) -> TypeTerm:
        """Canonicalize a type under the current equality givens."""
        return normalize(t, self.eq_givens, self.world)

    # ------------------------------------------------------------- driver

    def run(self, roots: list[tuple[str, str]] | None) -> CoreProgram:
        """Elaborate what the (module, function) pairs `roots` reach through
        `CGlobal` references; with None, every model and function in
        declaration order."""
        program = self.program
        if roots is None:
            for module in map(program.modules.get, program.graph.order):
                for model in module.models:
                    self.global_ref(model_def_name(model), model)
                for fun in module.funs.values():
                    self.global_ref(fun_def_name(fun.module, fun.name), fun)
        for module, name in roots or ():
            self.global_ref(fun_def_name(module, name), program.modules[module].funs[name])
        for name in self.order:  # visits the names queued while it runs too
            decl = self.decls[name]
            model = isinstance(decl, ModelDecl)
            self.defs[name] = self.elaborate_model(decl) if model else self.elaborate_fun(decl)
        entry = None if program.entry is None else fun_def_name(*program.entry)
        return CoreProgram(self.defs, self.order, entry, self.world)

    def global_ref(self, name: str, decl: FunDecl | ModelDecl) -> CGlobal:
        """The reference to the definition of `decl`; the first one queues it."""
        if name not in self.decls:
            self.decls[name] = decl
            self.order.append(name)
        return CGlobal(name)

    # ------------------------------------------------------------- declarations

    def _enter(self, context: list[ConstraintTerm]) -> list[tuple[str, TypeTerm]]:
        """Take `context` as the givens of the next declaration; returns its
        dictionary parameters, one per conformance constraint."""
        self.eq_givens = [c for c in context if isinstance(c, Eq)]
        self.given_env = {}
        params = []
        for i, c in enumerate(context):
            if isinstance(c, Conf):
                self.given_env[i] = CVar(f"$d{i}")
                params.append((f"$d{i}", self.ty(dict_type(self.concepts[c.concept], c.subjects))))
        return params

    def elaborate_fun(self, fun: FunDecl) -> CoreDef:
        dict_params = self._enter(fun.context)
        value_params = [(n, self.ty(t)) for n, t in fun.params]
        ret = self.ty(fun.ret)
        assert fun.body is not None, f"unchecked body reached elaboration: {fun.id}"
        params = dict_params + value_params
        return CoreDef(
            name=fun_def_name(fun.module, fun.name),
            tyvars=list(fun.typarams),
            type=fn_type([t for _, t in params], ret),
            expr=CLam(params, self.expr(fun.body)),
            eq_rules=list(self.eq_givens),
        )

    def elaborate_model(self, model: ModelDecl) -> CoreDef:
        concept = self.concepts[model.concept]
        dict_params = self._enter(model.context)
        # superclass givens sit after the context in the givens list
        base = len(model.context)
        for j, res in enumerate(model.superclass_resolutions):
            if res is not None and not isinstance(res, EqLeaf):
                self.given_env[base + j] = self.dict_expr(res)

        fields: dict[str, CoreExpr] = {}
        for j, sup in enumerate(concept.supers):
            if isinstance(sup, Conf):
                res = model.superclass_resolutions[j]
                assert res is not None, f"unresolved superclass on {model.display}"
                fields[f"super${j}"] = self.dict_expr(res)
        for req_name in concept.req_order:
            assert req_name in model.bodies, f"missing body {req_name} on {model.display}"
            params, body = model.bodies[req_name]
            fields[req_name] = CLam([(n, self.ty(t)) for n, t in params], self.expr(body))

        record = CDict(
            concept=model.concept,
            subjects=list(map(self.ty, model.head)),
            bindings={k: self.ty(v) for k, v in model.assoc.items()},
            fields=fields,
            tag=model.uid,
        )
        dict_t = self.ty(dict_type(concept, model.head))
        return CoreDef(
            name=model_def_name(model),
            tyvars=list(model.vars),
            type=fn_type([t for _, t in dict_params], dict_t) if dict_params else dict_t,
            expr=CLam(dict_params, record) if dict_params else record,
            eq_rules=list(self.eq_givens),
        )

    # ------------------------------------------------------------- resolutions

    def dict_expr(self, res) -> CoreExpr:
        if isinstance(res, ModelNode):
            model = res.picked.model
            base: CoreExpr = self.global_ref(model_def_name(model), model)
            if model.vars:
                base = CTyApp(base, list(map(self.ty, res.picked.type_args)))
            if model.context:
                dict_children = [
                    self.dict_expr(child)
                    for child, ctx in zip(res.children, model.context)
                    if isinstance(ctx, Conf)
                ]
                if dict_children:
                    base = CApp(base, dict_children)
            return base
        if isinstance(res, GivenLeaf):
            expr = self.given_env.get(res.index)
            assert expr is not None, f"no dictionary for given #{res.index}"
            for j in res.via:
                expr = CProj(expr, f"super${j}")
            return expr
        raise AssertionError(f"cannot elaborate resolution {res!r}")

    # ------------------------------------------------------------- expressions

    def expr(self, e: TExpr) -> CoreExpr:
        return ELABORATORS[type(e)](self, e)

    def _call(self, e: TCall) -> CoreExpr:
        tyargs = list(map(self.ty, e.tyargs))
        args = [self.expr(a) for a in e.args]
        if e.kind == "builtin":
            return CApp(CBuiltin(e.target[0]), args)
        if e.kind == "ctor":
            data_id, ctor = e.target
            return CCtor(data_id, ctor, tyargs, args)
        assert e.kind == "fun"
        module, name = e.target
        fun = self.program.modules[module].funs[name]
        base: CoreExpr = self.global_ref(fun_def_name(module, name), fun)
        if fun.typarams:
            base = CTyApp(base, tyargs)
        dict_args = [
            self.dict_expr(res)
            for res, ctx in zip(e.dict_args, fun.context)
            if isinstance(ctx, Conf)
        ]
        return CApp(base, dict_args + args)

    def _req_call(self, e: TReqCall) -> CoreExpr:
        dict_e = self.dict_expr(e.resolution)
        return CApp(CProj(dict_e, e.member), [self.expr(a) for a in e.args])

    def _match(self, e: TMatch) -> CoreExpr:
        arms = []
        for arm in e.arms:
            ctor = arm.ctor[1] if arm.ctor is not None else None
            arms.append((ctor, list(arm.binders), self.expr(arm.body)))
        return CMatch(self.expr(e.scrutinee), arms)

    def _let(self, e: TLet) -> CoreExpr:
        """A chain of lets, each the body of the one before, in one loop."""
        lets = []
        while type(e) is TLet:
            lets.append((e.name, self.expr(e.bound)))
            e = e.body
        core = self.expr(e)
        for name, bound in reversed(lets):
            core = CLet(name, bound, core)
        return core


# Typed expression class -> the core term elaborated from one of its nodes.
ELABORATORS = {
    TVarRef: lambda self, e: CVar(e.name),
    TGlobalFun: lambda self, e: self.global_ref(
        fun_def_name(e.module, e.name), self.program.modules[e.module].funs[e.name]
    ),
    TBuiltinRef: lambda self, e: CBuiltin(e.name),
    TLit: lambda self, e: CLit(e.kind, e.value),
    TCall: Elaborator._call,
    TCallExpr: lambda self, e: CApp(self.expr(e.fn), [self.expr(a) for a in e.args]),
    TReqCall: Elaborator._req_call,
    TLam: lambda self, e: CLam([(n, self.ty(t)) for n, t in e.params], self.expr(e.body)),
    TMatch: Elaborator._match,
    TLet: Elaborator._let,
    TTuple: lambda self, e: CTuple(self.expr(e.first), self.expr(e.second)),
    TIf: lambda self, e: CIf(self.expr(e.cond), self.expr(e.then), self.expr(e.orelse)),
}


def elaborate(program: LinkedProgram, roots: list[tuple[str, str]] | None = None) -> CoreProgram:
    """Dictionary-passing elaboration of a fully checked program: of every
    definition, or with `roots` of only those the given functions reach."""
    return Elaborator(program).run(roots)


# ---------------------------------------------------------------- core checking


class CoreIllTyped(Exception):
    def __init__(self, msg: str):
        self.msg = msg
        super().__init__(msg)


# Literal kind -> the type of its literals.
LITERAL_TYPES = {"u64": U64, "u8": U8, "bool": BOOL, "string": STRING, "unit": UNIT, "f64": F64}


class CoreChecker:
    """Infers the type of every core node, one rule per node class
    (`CHECKERS`), and fails at the first ill-typed one.

    Dictionary field types and builtin results are built once per run, in
    tables keyed on interned terms: a table entry is stored only after every
    check on its key has passed, so a later node with the same key skips
    only checks that passed already.
    """

    def __init__(self, program: CoreProgram):
        self.program = program
        self.concepts, self.datas = program.world.index.concepts, program.world.index.datas
        self.eq_rules: list[Eq] = []  # the current definition's erased givens
        self.dicts: dict[tuple, dict] = {}  # (concept, subjects) -> field types
        self.builtin_apps: dict[tuple, TypeTerm] = {}  # (builtin, *argument types) -> result

    def norm(self, t: TypeTerm) -> TypeTerm:
        return normalize(t, self.eq_rules, self.program.world)

    def equal(self, a: TypeTerm, b: TypeTerm) -> bool:
        return a is b or self.norm(a) is self.norm(b)

    def fail(self, msg: str):
        raise CoreIllTyped(msg)

    def check_program(self) -> list[Diagnostic]:
        try:
            for name in self.program.order:
                d = self.program.defs[name]
                self.eq_rules = d.eq_rules
                got = self.infer(d.expr, {})
                if not self.equal(got, d.type):
                    self.fail(
                        f"definition {name}: declared {render(d.type)}, "
                        f"elaborated body has {render(got)}"
                    )
        except CoreIllTyped as exc:
            return [
                Diagnostic(
                    "E-CORE-ILLTYPED",
                    f"core program does not type check (elaborator bug): {exc.msg}",
                    Span.at("<core>"),
                )
            ]
        return []

    # ------------------------------------------------------------- inference

    def infer(self, e: CoreExpr, env: dict[str, TypeTerm]) -> TypeTerm:
        try:
            rule = CHECKERS[type(e)]
        except KeyError:
            self.fail(f"unknown core node {type(e).__name__}")
        return rule(self, e, env)

    def _var(self, e: CVar, env) -> TypeTerm:
        try:
            return env[e.name]
        except KeyError:
            self.fail(f"unbound core variable {e.name}")

    def _global(self, e: CGlobal, env) -> TypeTerm:
        d = self.program.defs.get(e.name)
        if d is None:
            self.fail(f"unknown global {e.name}")
        if d.tyvars:
            self.fail(f"generic global {e.name} used without type arguments")
        return d.type

    def _tyapp(self, e: CTyApp, env) -> TypeTerm:
        if not isinstance(e.fn, CGlobal):
            self.fail("type application to a non-global")
        d = self.program.defs.get(e.fn.name)
        if d is None:
            self.fail(f"unknown global {e.fn.name}")
        if len(d.tyvars) != len(e.args):
            self.fail(f"{e.fn.name} expects {len(d.tyvars)} type arguments")
        sub = Substitution({v.uid: a for v, a in zip(d.tyvars, e.args)})
        return sub.apply(d.type)

    def _builtin_sig(self, name: str) -> tuple:
        sig = BUILTIN_SIGS.get(name)
        if sig is None:
            self.fail(f"unknown builtin {name}")
        return sig

    def _builtin(self, e: CBuiltin, env) -> TypeTerm:
        typs, params, ret = self._builtin_sig(e.name)
        if typs:
            self.fail(f"generic builtin {e.name} must be applied")
        return fn_type(params, ret)

    def _lit(self, e: CLit, env) -> TypeTerm:
        try:
            return LITERAL_TYPES[e.kind]
        except KeyError:
            self.fail(f"unknown literal kind {e.kind}")

    def _lam(self, e: CLam, env) -> TypeTerm:
        inner = dict(env)
        inner.update(e.params)
        ret = self.infer(e.body, inner)
        return fn_type([t for _, t in e.params], ret)

    def _app(self, e: CApp, env) -> TypeTerm:
        if isinstance(e.fn, CBuiltin):
            return self._builtin_app(e.fn.name, e.args, env)
        fn_t = self.norm(self.infer(e.fn, env))
        split = split_fn_type(fn_t)
        if split is None:
            self.fail(f"application of non-function type {render(fn_t)}")
        params, ret = split
        if len(params) != len(e.args):
            self.fail(f"arity mismatch: {len(params)} vs {len(e.args)}")
        for arg, want in zip(e.args, params):
            got = self.infer(arg, env)
            if not self.equal(got, want):
                self.fail(f"argument expects {render(want)}, got {render(got)}")
        return ret

    def _builtin_app(self, name: str, args: list[CoreExpr], env) -> TypeTerm:
        _, params, ret = self._builtin_sig(name)
        if len(params) != len(args):
            self.fail(f"{name}: wrong arity")
        arg_types = [self.norm(self.infer(a, env)) for a in args]
        key = (name, *arg_types)
        result = self.builtin_apps.get(key)
        if result is None:
            m = match_many(zip(params, arg_types))
            if m is None:
                shown = ", ".join(render(t) for t in arg_types)
                self.fail(f"builtin {name} cannot accept ({shown})")
            result = self.builtin_apps[key] = m.apply(ret)
        return result

    def _dictionary(self, concept_id: str, concept: ConceptDecl, subjects: tuple) -> dict:
        """Field name -> type of the dictionary of `concept` at `subjects`."""
        key = (concept_id, subjects)
        fields = self.dicts.get(key)
        if fields is None:
            if len(subjects) != len(concept.params):
                wants = len(concept.params)
                self.fail(f"dictionary of {concept_id} at {len(subjects)} subjects, wants {wants}")
            fields = self.dicts[key] = concept_field_types(concept, subjects, self.concepts)
        return fields

    def _dict(self, e: CDict, env) -> TypeTerm:
        concept = self.concepts.get(e.concept)
        if concept is None:
            self.fail(f"unknown concept {e.concept}")
        subjects = tuple(e.subjects)
        expected = self._dictionary(e.concept, concept, subjects)
        if e.fields.keys() != expected.keys():
            self.fail(
                f"dictionary for {e.concept} has fields {sorted(e.fields)}, "
                f"wants {sorted(expected)}"
            )
        for fname, ftype in expected.items():
            want = bind_assocs(e.concept, subjects, e.bindings, ftype)
            got = self.infer(e.fields[fname], env)
            if not self.equal(got, want):
                self.fail(
                    f"dictionary field {fname} of {e.concept}: expected "
                    f"{render(want)}, got {render(got)}"
                )
        return dict_type(concept, subjects)

    def _proj(self, e: CProj, env) -> TypeTerm:
        rec_t = self.norm(self.infer(e.record, env))
        head = rec_t.head if isinstance(rec_t, App) else None
        if not (isinstance(head, Con) and head.name.startswith("Dict$")):
            self.fail(f"projection .{e.field} from non-dictionary type {render(rec_t)}")
        concept_id = head.name[len("Dict$"):]
        concept = self.concepts.get(concept_id)
        if concept is None:
            self.fail(f"unknown concept dictionary {concept_id}")
        ftype = self._dictionary(concept_id, concept, rec_t.args).get(e.field)
        if ftype is None:
            self.fail(f"dictionary {concept_id} has no field {e.field}")
        return ftype

    def _ctor(self, e: CCtor, env) -> TypeTerm:
        data = self.datas.get(e.data)
        if data is None:
            self.fail(f"unknown data type {e.data}")
        cdecl = data.ctor(e.ctor)
        if cdecl is None:
            self.fail(f"{e.data} has no constructor {e.ctor}")
        if len(e.tyargs) != len(data.params):
            self.fail(f"{e.ctor}: wrong number of type arguments")
        if len(e.args) != len(cdecl.fields):
            self.fail(f"{e.ctor}: wrong arity")
        fields, data_ty = cdecl.fields, data.con
        if data.params:
            fields = Substitution({v.uid: t for v, t in zip(data.params, e.tyargs)}).apply(fields)
            data_ty = App(data_ty, tuple(e.tyargs))
        for arg, want in zip(e.args, fields):
            got = self.infer(arg, env)
            if not self.equal(got, want):
                self.fail(f"{e.ctor}: field expects {render(want)}, got {render(got)}")
        return data_ty

    def _match(self, e: CMatch, env) -> TypeTerm:
        scrut = self.norm(self.infer(e.scrutinee, env))
        con = outermost_con(scrut)
        data = None if con is None else self.datas.get(f"{con.origin}.{con.name}")
        if data is None:
            self.fail(f"match on non-data type {render(scrut)}")
        args = scrut.args if isinstance(scrut, App) else ()
        sub = Substitution({v.uid: t for v, t in zip(data.params, args)})
        result: TypeTerm | None = None
        for ctor_name, binders, body in e.arms:
            inner = env
            if ctor_name is not None:
                cdecl = data.ctor(ctor_name)
                if cdecl is None:
                    self.fail(f"{data.name} has no constructor {ctor_name}")
                if len(binders) != len(cdecl.fields):
                    self.fail(f"{ctor_name}: pattern arity")
                inner = dict(env)
                for b, ftype in zip(binders, cdecl.fields):
                    if b != "_":
                        inner[b] = sub.apply(ftype)
            got = self.infer(body, inner)
            if result is None:
                result = got
            elif not self.equal(got, result):
                self.fail(f"match arms disagree: {render(result)} vs {render(got)}")
        if result is None:
            self.fail("match with no arms")
        return result

    def _let(self, e: CLet, env) -> TypeTerm:
        """A chain of lets in one loop, bound in `env` itself and unbound on
        the way out, as sema does."""
        shadowed = []
        try:
            while type(e) is CLet:
                bound = self.infer(e.bound, env)
                if e.name != "_":  # binds nothing, as `_` binders of match arms
                    shadowed.append((e.name, env.get(e.name)))
                    env[e.name] = bound
                e = e.body
            return self.infer(e, env)
        finally:
            for name, old in reversed(shadowed):
                if old is None:
                    del env[name]
                else:
                    env[name] = old

    def _if(self, e: CIf, env) -> TypeTerm:
        if not self.equal(self.infer(e.cond, env), BOOL):
            self.fail("if condition not Bool")
        t_then = self.infer(e.then, env)
        t_else = self.infer(e.orelse, env)
        if not self.equal(t_then, t_else):
            self.fail(f"if branches disagree: {render(t_then)} vs {render(t_else)}")
        return t_then


# Core node class -> the rule that infers the type of one of its nodes.
CHECKERS = {
    CVar: CoreChecker._var,
    CGlobal: CoreChecker._global,
    CBuiltin: CoreChecker._builtin,
    CLit: CoreChecker._lit,
    CLam: CoreChecker._lam,
    CTyApp: CoreChecker._tyapp,
    CApp: CoreChecker._app,
    CDict: CoreChecker._dict,
    CProj: CoreChecker._proj,
    CCtor: CoreChecker._ctor,
    CMatch: CoreChecker._match,
    CLet: CoreChecker._let,
    CTuple: lambda self, e, env: pair_type(self.infer(e.first, env), self.infer(e.second, env)),
    CIf: CoreChecker._if,
}


def core_check(program: CoreProgram) -> list[Diagnostic]:
    """Declarative checking of an elaborated core program."""
    return CoreChecker(program).check_program()


# ---------------------------------------------------------------- serialization


def core_to_json(program: CoreProgram) -> dict:
    """Stable JSON form of a core program (`--emit-core`)."""

    def ty(t: TypeTerm) -> str:
        return render(t)

    def go(e: CoreExpr):
        if isinstance(e, CVar):
            return {"var": e.name}
        if isinstance(e, CGlobal):
            return {"global": e.name}
        if isinstance(e, CBuiltin):
            return {"builtin": e.name}
        if isinstance(e, CLit):
            return {"lit": e.kind, "value": e.value if not isinstance(e.value, tuple) else None}
        if isinstance(e, CLam):
            return {
                "lam": [[n, ty(t)] for n, t in e.params],
                "body": go(e.body),
            }
        if isinstance(e, CApp):
            return {"app": go(e.fn), "args": [go(a) for a in e.args]}
        if isinstance(e, CTyApp):
            return {"tyapp": go(e.fn), "types": [ty(t) for t in e.args]}
        if isinstance(e, CDict):
            return {
                "dict": e.concept,
                "subjects": [ty(s) for s in e.subjects],
                "bindings": {k: ty(v) for k, v in sorted(e.bindings.items())},
                "tag": e.tag,
                "fields": {k: go(v) for k, v in sorted(e.fields.items())},
            }
        if isinstance(e, CProj):
            return {"proj": go(e.record), "field": e.field}
        if isinstance(e, CCtor):
            return {
                "ctor": e.ctor,
                "data": e.data,
                "types": [ty(t) for t in e.tyargs],
                "args": [go(a) for a in e.args],
            }
        if isinstance(e, CMatch):
            return {
                "match": go(e.scrutinee),
                "arms": [
                    {"ctor": c, "binders": b, "body": go(x)} for c, b, x in e.arms
                ],
            }
        if isinstance(e, CLet):  # a chain of lets in a loop, each the body of the one before
            top = node = {"let": e.name, "bound": go(e.bound)}
            while isinstance(e.body, CLet):
                e = e.body
                node["body"] = node = {"let": e.name, "bound": go(e.bound)}
            node["body"] = go(e.body)
            return top
        if isinstance(e, CTuple):
            return {"tuple": [go(e.first), go(e.second)]}
        if isinstance(e, CIf):
            return {"if": go(e.cond), "then": go(e.then), "else": go(e.orelse)}
        raise AssertionError(type(e))

    return {
        "entry": program.entry,
        "defs": [
            {
                "name": name,
                "tyvars": [v.name for v in program.defs[name].tyvars],
                "type": ty(program.defs[name].type),
                "expr": go(program.defs[name].expr),
            }
            for name in program.order
        ],
    }
