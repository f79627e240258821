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
    DataDecl,
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
from .std import BUILTIN_SIGS, STD_MODULE
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
    __slots__ = ("defs", "order", "entry", "concepts", "datas", "models", "world")
    def __init__(self, defs: dict[str, CoreDef], order: list[str], entry: str | None,
                 concepts: dict[str, ConceptDecl], datas: dict[str, DataDecl],
                 models: dict[str, ModelDecl], world: ModelWorld):
        self.defs, self.order, self.entry, self.concepts = defs, order, entry, concepts
        self.datas, self.models, self.world = datas, models, world


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
) -> list[tuple[str, TypeTerm, str]]:
    """Dictionary fields of a concept at the given subjects.

    Returns (field name, type, kind) with superclass fields first; kind is
    "super" or "requirement". Types are not normalized here.
    """
    inst = concept.instantiate(list(subjects))
    fields: list[tuple[str, TypeTerm, str]] = []
    for j, sup in enumerate(concept.supers):
        if isinstance(sup, Conf):
            sup_decl = concepts[sup.concept]
            sup_subjects = tuple(inst.apply(s) for s in sup.subjects)
            fields.append((f"super${j}", dict_type(sup_decl, sup_subjects), "super"))
    for req_name in concept.req_order:
        sig = concept.requirements[req_name]
        params = [inst.apply(t) for _, t in sig.params]
        fields.append((req_name, fn_type(params, inst.apply(sig.ret)), "requirement"))
    return fields


# ---------------------------------------------------------------- elaboration


class Elaborator:
    def __init__(self, program: LinkedProgram):
        self.program = program
        self.concepts = program.concepts_table()
        self.world = program.world
        self.models: dict[str, ModelDecl] = {
            m.uid: m for m in program.world.models
        }
        self.datas: dict[str, DataDecl] = {}
        for mod in [STD_MODULE] + [program.modules[n] for n in program.graph.order]:
            for d in mod.datas.values():
                self.datas[d.id] = d
        self.defs: dict[str, CoreDef] = {}
        self.order: list[str] = []
        # per-declaration elaboration state
        self.eq_givens: list[Eq] = []
        self.given_env: dict[int, CoreExpr] = {}

    # ------------------------------------------------------------- types

    def ty(self, t: TypeTerm) -> TypeTerm:
        """Canonicalize a type under the current equality givens."""
        return normalize(t, self.eq_givens, self.world)

    # ------------------------------------------------------------- driver

    def run(self) -> CoreProgram:
        for name in self.program.graph.order:
            module = self.program.modules[name]
            for model in module.models:
                self._emit(self.elaborate_model(model))
            for fun in module.funs.values():
                self._emit(self.elaborate_fun(fun))
        entry = None
        if self.program.entry is not None:
            entry = fun_def_name(*self.program.entry)
        return CoreProgram(
            defs=self.defs,
            order=self.order,
            entry=entry,
            concepts=self.concepts,
            datas=self.datas,
            models=self.models,
            world=self.world,
        )

    def _emit(self, d: CoreDef):
        assert d.name not in self.defs, d.name
        self.defs[d.name] = d
        self.order.append(d.name)

    # ------------------------------------------------------------- declarations

    def _conf_entries(self, context: list[ConstraintTerm]) -> list[tuple[int, Conf]]:
        return [(i, c) for i, c in enumerate(context) if isinstance(c, Conf)]

    def _dict_param(self, index: int, c: Conf) -> tuple[str, TypeTerm]:
        concept = self.concepts[c.concept]
        return (f"$d{index}", self.ty(dict_type(concept, c.subjects)))

    def elaborate_fun(self, fun: FunDecl) -> CoreDef:
        self.eq_givens = [c for c in fun.context if isinstance(c, Eq)]
        self.given_env = {
            i: CVar(f"$d{i}") for i, _ in self._conf_entries(fun.context)
        }
        dict_params = [self._dict_param(i, c) for i, c in self._conf_entries(fun.context)]
        value_params = [(n, self.ty(t)) for n, t in fun.params]
        ret = self.ty(fun.ret)
        assert fun.body is not None, f"unchecked body reached elaboration: {fun.id}"
        body = self.expr(fun.body)
        params = dict_params + value_params
        expr: CoreExpr = CLam(params, body) if params else CLam([], body)
        return CoreDef(
            name=fun_def_name(fun.module, fun.name),
            tyvars=list(fun.typarams),
            type=fn_type([t for _, t in params], ret),
            expr=expr,
            eq_rules=list(self.eq_givens),
        )

    def elaborate_model(self, model: ModelDecl) -> CoreDef:
        concept = self.concepts[model.concept]
        self.eq_givens = [c for c in model.context if isinstance(c, Eq)]
        conf_entries = self._conf_entries(model.context)
        self.given_env = {i: CVar(f"$d{i}") for i, _ in conf_entries}
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
            body = model.bodies.get(req_name)
            assert body is not None, f"missing body {req_name} on {model.display}"
            fields[req_name] = self.expr(body)

        record = CDict(
            concept=concept.id,
            subjects=[self.ty(h) for h in model.head],
            bindings={k: self.ty(v) for k, v in model.assoc.items()},
            fields=fields,
            tag=model.uid,
        )
        dict_params = [self._dict_param(i, c) for i, c in conf_entries]
        expr: CoreExpr = CLam(dict_params, record) if dict_params else record
        ty = (
            fn_type([t for _, t in dict_params], self.ty(dict_type(concept, model.head)))
            if dict_params
            else self.ty(dict_type(concept, model.head))
        )
        return CoreDef(
            name=model_def_name(model),
            tyvars=list(model.vars),
            type=ty,
            expr=expr,
            eq_rules=list(self.eq_givens),
        )

    # ------------------------------------------------------------- resolutions

    def dict_expr(self, res) -> CoreExpr:
        if isinstance(res, ModelNode):
            model = self.models[res.model]
            base: CoreExpr = CGlobal(model_def_name(model))
            if model.vars:
                base = CTyApp(base, [self.ty(t) for t in res.type_args])
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
        if isinstance(e, TVarRef):
            return CVar(e.name)
        if isinstance(e, TGlobalFun):
            return CGlobal(fun_def_name(e.module, e.name))
        if isinstance(e, TBuiltinRef):
            return CBuiltin(e.name)
        if isinstance(e, TLit):
            return CLit(e.kind, e.value)
        if isinstance(e, TCall):
            return self._call(e)
        if isinstance(e, TCallExpr):
            return CApp(self.expr(e.fn), [self.expr(a) for a in e.args])
        if isinstance(e, TReqCall):
            dict_e = self.dict_expr(e.resolution)
            return CApp(CProj(dict_e, e.member), [self.expr(a) for a in e.args])
        if isinstance(e, TLam):
            return CLam([(n, self.ty(t)) for n, t in e.params], self.expr(e.body))
        if isinstance(e, TMatch):
            arms = []
            for arm in e.arms:
                ctor = arm.ctor[1] if arm.ctor is not None else None
                arms.append((ctor, list(arm.binders), self.expr(arm.body)))
            return CMatch(self.expr(e.scrutinee), arms)
        if isinstance(e, TLet):
            return CLet(e.name, self.expr(e.bound), self.expr(e.body))
        if isinstance(e, TTuple):
            return CTuple(self.expr(e.first), self.expr(e.second))
        if isinstance(e, TIf):
            return CIf(self.expr(e.cond), self.expr(e.then), self.expr(e.orelse))
        raise AssertionError(type(e))

    def _call(self, e: TCall) -> CoreExpr:
        tyargs = [self.ty(t) for t in e.tyargs]
        args = [self.expr(a) for a in e.args]
        if e.kind == "builtin":
            return CApp(CBuiltin(e.target[0]), args)
        if e.kind == "ctor":
            data_id, ctor = e.target
            return CCtor(data_id, ctor, tyargs, args)
        assert e.kind == "fun"
        module, name = e.target
        fun = self.program.modules[module].funs[name]
        base: CoreExpr = CGlobal(fun_def_name(module, name))
        if fun.typarams:
            base = CTyApp(base, tyargs)
        dict_args = [
            self.dict_expr(res)
            for res, ctx in zip(e.dict_args, fun.context)
            if isinstance(ctx, Conf)
        ]
        return CApp(base, dict_args + args)


def elaborate(program: LinkedProgram) -> CoreProgram:
    """Dictionary-passing elaboration of a fully checked program."""
    return Elaborator(program).run()


# ---------------------------------------------------------------- core checking


class CoreIllTyped(Exception):
    def __init__(self, msg: str):
        self.msg = msg
        super().__init__(msg)


class CoreChecker:
    def __init__(self, program: CoreProgram):
        self.program = program
        self.eq_rules: list[Eq] = []  # the current definition's erased givens

    def norm(self, t: TypeTerm) -> TypeTerm:
        return normalize(t, self.eq_rules, self.program.world)

    def equal(self, a: TypeTerm, b: TypeTerm) -> bool:
        return self.norm(a) == self.norm(b)

    def fail(self, msg: str):
        raise CoreIllTyped(msg)

    def require(self, cond: bool, msg: str):
        if not cond:
            self.fail(msg)

    def check_program(self) -> list[Diagnostic]:
        try:
            for name in self.program.order:
                d = self.program.defs[name]
                self.eq_rules = list(d.eq_rules)
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
                    Span("<core>", (1, 1), (1, 1)),
                )
            ]
        return []

    # ------------------------------------------------------------- inference

    def infer(self, e: CoreExpr, env: dict[str, TypeTerm]) -> TypeTerm:
        if isinstance(e, CVar):
            if e.name not in env:
                self.fail(f"unbound core variable {e.name}")
            return env[e.name]
        if isinstance(e, CGlobal):
            d = self.program.defs.get(e.name)
            if d is None:
                self.fail(f"unknown global {e.name}")
            self.require(not d.tyvars, f"generic global {e.name} used without type arguments")
            return d.type
        if isinstance(e, CTyApp):
            self.require(isinstance(e.fn, CGlobal), "type application to a non-global")
            d = self.program.defs.get(e.fn.name)
            if d is None:
                self.fail(f"unknown global {e.fn.name}")
            self.require(
                len(d.tyvars) == len(e.args),
                f"{e.fn.name} expects {len(d.tyvars)} type arguments",
            )
            sub = Substitution({v.uid: t for v, t in zip(d.tyvars, e.args)})
            return sub.apply(d.type)
        if isinstance(e, CBuiltin):
            typs, params, ret = BUILTIN_SIGS[e.name]
            self.require(not typs, f"generic builtin {e.name} must be applied")
            return fn_type(list(params), ret)
        if isinstance(e, CLit):
            return {
                "u64": U64,
                "u8": U8,
                "bool": BOOL,
                "string": STRING,
                "unit": UNIT,
                "f64": F64,
            }[e.kind]
        if isinstance(e, CLam):
            inner = dict(env)
            inner.update(e.params)
            ret = self.infer(e.body, inner)
            return fn_type([t for _, t in e.params], ret)
        if isinstance(e, CApp):
            return self._infer_app(e, env)
        if isinstance(e, CDict):
            return self._infer_dict(e, env)
        if isinstance(e, CProj):
            rec_t = self.norm(self.infer(e.record, env))
            if not (isinstance(rec_t, App) and isinstance(rec_t.head, Con) and rec_t.head.name.startswith("Dict$")):
                self.fail(f"projection .{e.field} from non-dictionary type {render(rec_t)}")
            concept_id = rec_t.head.name[len("Dict$"):]
            concept = self.program.concepts.get(concept_id)
            if concept is None:
                self.fail(f"unknown concept dictionary {concept_id}")
            for fname, ftype, _ in concept_field_types(concept, rec_t.args, self.program.concepts):
                if fname == e.field:
                    return ftype
            self.fail(f"dictionary {concept_id} has no field {e.field}")
        if isinstance(e, CCtor):
            data = self.program.datas.get(e.data)
            if data is None:
                self.fail(f"unknown data type {e.data}")
            cdecl = data.ctor(e.ctor)
            if cdecl is None:
                self.fail(f"{e.data} has no constructor {e.ctor}")
            self.require(
                len(e.tyargs) == len(data.params),
                f"{e.ctor}: wrong number of type arguments",
            )
            sub = Substitution({v.uid: t for v, t in zip(data.params, e.tyargs)})
            self.require(len(e.args) == len(cdecl.fields), f"{e.ctor}: wrong arity")
            for arg, ftype in zip(e.args, cdecl.fields):
                got = self.infer(arg, env)
                if not self.equal(got, sub.apply(ftype)):
                    self.fail(
                        f"{e.ctor}: field expects {render(sub.apply(ftype))}, got {render(got)}"
                    )
            data_ty = Con(data.name, 0, data.module) if not data.params else App(
                Con(data.name, len(data.params), data.module), tuple(e.tyargs)
            )
            return data_ty
        if isinstance(e, CMatch):
            return self._infer_match(e, env)
        if isinstance(e, CLet):
            bound = self.infer(e.bound, env)
            inner = dict(env)
            inner[e.name] = bound
            return self.infer(e.body, inner)
        if isinstance(e, CTuple):
            return pair_type(self.infer(e.first, env), self.infer(e.second, env))
        if isinstance(e, CIf):
            self.require(self.equal(self.infer(e.cond, env), BOOL), "if condition not Bool")
            t_then = self.infer(e.then, env)
            t_else = self.infer(e.orelse, env)
            if not self.equal(t_then, t_else):
                self.fail(f"if branches disagree: {render(t_then)} vs {render(t_else)}")
            return t_then
        raise AssertionError(type(e))

    def _infer_app(self, e: CApp, env) -> TypeTerm:
        if isinstance(e.fn, CBuiltin):
            _, params, ret = BUILTIN_SIGS[e.fn.name]
            self.require(len(params) == len(e.args), f"{e.fn.name}: wrong arity")
            arg_types = [self.norm(self.infer(a, env)) for a in e.args]
            m = match_many(zip(params, arg_types))
            if m is None:
                shown = ", ".join(render(t) for t in arg_types)
                self.fail(f"builtin {e.fn.name} cannot accept ({shown})")
            return m.apply(ret)
        fn_t = self.norm(self.infer(e.fn, env))
        split = split_fn_type(fn_t)
        if split is None:
            self.fail(f"application of non-function type {render(fn_t)}")
        params, ret = split
        self.require(
            len(params) == len(e.args),
            f"arity mismatch: {len(params)} vs {len(e.args)}",
        )
        for arg, want in zip(e.args, params):
            got = self.infer(arg, env)
            if not self.equal(got, want):
                self.fail(f"argument expects {render(want)}, got {render(got)}")
        return ret

    def _infer_dict(self, e: CDict, env) -> TypeTerm:
        concept = self.program.concepts.get(e.concept)
        if concept is None:
            self.fail(f"unknown concept {e.concept}")
        subjects = tuple(e.subjects)
        expected = concept_field_types(concept, subjects, self.program.concepts)
        expected_names = [name for name, _, _ in expected]
        if sorted(e.fields) != sorted(expected_names):
            self.fail(
                f"dictionary for {e.concept} has fields {sorted(e.fields)}, "
                f"wants {sorted(expected_names)}"
            )
        for fname, ftype, _ in expected:
            want = bind_assocs(e.concept, subjects, e.bindings, ftype)
            got = self.infer(e.fields[fname], env)
            if not self.equal(got, want):
                self.fail(
                    f"dictionary field {fname} of {e.concept}: expected "
                    f"{render(want)}, got {render(got)}"
                )
        return dict_type(concept, subjects)

    def _infer_match(self, e: CMatch, env) -> TypeTerm:
        scrut = self.norm(self.infer(e.scrutinee, env))
        con = outermost_con(scrut)
        data = None if con is None else self.program.datas.get(f"{con.origin}.{con.name}")
        if data is None:
            self.fail(f"match on non-data type {render(scrut)}")
        args = scrut.args if isinstance(scrut, App) else ()
        sub = Substitution({v.uid: t for v, t in zip(data.params, args)})
        result: TypeTerm | None = None
        for ctor_name, binders, body in e.arms:
            inner = dict(env)
            if ctor_name is not None:
                cdecl = data.ctor(ctor_name)
                if cdecl is None:
                    self.fail(f"{data.name} has no constructor {ctor_name}")
                self.require(len(binders) == len(cdecl.fields), f"{ctor_name}: pattern arity")
                for b, ftype in zip(binders, cdecl.fields):
                    if b != "_":
                        inner[b] = sub.apply(ftype)
            got = self.infer(body, inner)
            if result is None:
                result = got
            elif not self.equal(got, result):
                self.fail(f"match arms disagree: {render(result)} vs {render(got)}")
        assert result is not None
        return result


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
        if isinstance(e, CLet):
            return {"let": e.name, "bound": go(e.bound), "body": go(e.body)}
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
