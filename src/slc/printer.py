"""Pretty-printer for surface ASTs.

`parse_module(pretty_print(m))` must be structurally equal to `m` modulo
spans; `ast_equal` implements that comparison.
"""

from __future__ import annotations

from . import ast as A
from .diagnostics import Record, Span, slot_names

INDENT = "  "


def pretty_print(module: A.ModuleAST) -> str:
    out: list[str] = [f"module {module.name}"]
    for imp in module.imports:
        out.append(f"import {imp}")
    for decl in module.decls:
        out.append("")
        out.append(print_decl(decl, 0))
    return "\n".join(out) + "\n"


def print_decl(decl: A.DeclAST, depth: int) -> str:
    pad = INDENT * depth
    if isinstance(decl, A.ConceptAST):
        head = f"{pad}concept {decl.name}[{', '.join(decl.params)}]"
        head += print_where(decl.supers)
        items = [f"{pad}{INDENT}type {n}" for n in decl.assoc_names]
        for req in decl.requirements:
            params = ", ".join(f"{n}: {print_type(t)}" for n, t in req.params)
            items.append(f"{pad}{INDENT}fn {req.name}({params}) -> {print_type(req.ret)}")
        if not items:
            return head + " { }"
        return head + " {\n" + "\n".join(items) + f"\n{pad}}}"
    if isinstance(decl, A.ModelAST):
        name = f"{decl.name}: " if decl.name else ""
        head_types = ", ".join(print_type(t) for t in decl.head)
        head = f"{pad}model {name}{decl.concept}[{head_types}]" + print_where(decl.context)
        items = [
            f"{pad}{INDENT}type {b.member} = {print_type(b.rhs)}" for b in decl.assoc_binds
        ]
        for body in decl.bodies:
            items.append(print_decl(body, depth + 1))
        if not items:
            return head + " { }"
        return head + " {\n" + "\n".join(items) + f"\n{pad}}}"
    if isinstance(decl, A.FunAST):
        typarams = f"[{', '.join(decl.typarams)}]" if decl.typarams else ""
        params = ", ".join(f"{n}: {print_type(t)}" for n, t in decl.params)
        head = f"{pad}fn {decl.name}{typarams}({params}) -> {print_type(decl.ret)}"
        head += print_where(decl.context)
        return head + " " + print_block(decl.body, depth)
    if isinstance(decl, A.DataAST):
        params = f"[{', '.join(decl.params)}]" if decl.params else ""
        ctors = []
        for ctor in decl.ctors:
            if ctor.fields:
                ctors.append(f"{ctor.name}({', '.join(print_type(t) for t in ctor.fields)})")
            else:
                ctors.append(ctor.name)
        return f"{pad}data {decl.name}{params} {{ {', '.join(ctors)} }}"
    raise AssertionError(type(decl))


def print_where(constraints) -> str:
    if not constraints:
        return ""
    return " where " + ", ".join(print_constraint(c) for c in constraints)


def print_constraint(c: A.ConstraintAST) -> str:
    if isinstance(c, A.ConfAST):
        return f"{c.concept}[{', '.join(print_type(t) for t in c.args)}]"
    if isinstance(c, A.EqAST):
        return f"{print_type(c.lhs)} == {print_type(c.rhs)}"
    raise AssertionError(type(c))


def print_type(t: A.TypeExprAST) -> str:
    if isinstance(t, A.TName):
        base = t.base
        if t.args:
            base += f"[{', '.join(print_type(a) for a in t.args)}]"
        for proj in t.projections:
            base += f".{proj}"
        return base
    if isinstance(t, A.TTuple):
        return f"({print_type(t.items[0])}, {print_type(t.items[1])})"
    if isinstance(t, A.TUnit):
        return "()"
    if isinstance(t, A.TFn):
        params = ", ".join(print_type(p) for p in t.params)
        return f"({params}) -> {print_type(t.ret)}"
    if isinstance(t, A.TProj):
        return f"({print_type(t.base)}).{t.member}"
    raise AssertionError(type(t))


def print_block(e: A.ExprAST, depth: int) -> str:
    """Render an expression as a braced block, expanding let chains."""
    pad = INDENT * depth
    inner = INDENT * (depth + 1)
    stmts: list[str] = []
    cur = e
    while isinstance(cur, A.ELet):
        if cur.name == "_" and cur.annot is None:
            stmts.append(f"{inner}{print_expr(cur.bound, depth + 1)};")
        else:
            annot = f": {print_type(cur.annot)}" if cur.annot else ""
            stmts.append(f"{inner}let {cur.name}{annot} = {print_expr(cur.bound, depth + 1)};")
        cur = cur.body
    stmts.append(f"{inner}{print_expr(cur, depth + 1)}")
    return "{\n" + "\n".join(stmts) + f"\n{pad}}}"


def print_expr(e: A.ExprAST, depth: int = 0) -> str:
    pad = INDENT * depth
    if isinstance(e, A.EVar):
        return e.name
    if isinstance(e, A.EInt):
        suffix = f":{e.width}" if e.width else ""
        return f"{e.lexeme}{suffix}"
    if isinstance(e, A.EFloat):
        return e.lexeme
    if isinstance(e, A.EString):
        escaped = e.value.replace("\\", "\\\\").replace('"', '\\"').replace("\n", "\\n")
        return f'"{escaped}"'
    if isinstance(e, A.EBool):
        return "true" if e.value else "false"
    if isinstance(e, A.EUnit):
        return "()"
    if isinstance(e, A.EApp):
        fn = print_expr(e.fn, depth)
        if not isinstance(e.fn, (A.EVar, A.EApp)):
            fn = f"({fn})"
        return f"{fn}({', '.join(print_expr(a, depth) for a in e.args)})"
    if isinstance(e, A.ELambda):
        params = ", ".join(
            f"{n}: {print_type(t)}" if t is not None else n for n, t in e.params
        )
        return f"fn({params}) => {print_expr(e.body, depth)}"
    if isinstance(e, A.EMatch):
        arms = []
        inner = INDENT * (depth + 1)
        for arm in e.arms:
            if arm.ctor is None:
                pat = "_"
            elif arm.binders:
                pat = f"{arm.ctor}({', '.join(arm.binders)})"
            else:
                pat = arm.ctor
            arms.append(f"{inner}{pat} => {print_expr(arm.body, depth + 1)}")
        scrut = print_expr(e.scrutinee, depth)
        return f"match {scrut} {{\n" + ",\n".join(arms) + f"\n{pad}}}"
    if isinstance(e, A.ELet):
        return print_block(e, depth)[0:]  # a let chain in value position prints as a block
    if isinstance(e, A.ETuple):
        return f"({print_expr(e.items[0], depth)}, {print_expr(e.items[1], depth)})"
    if isinstance(e, A.EIf):
        cond = print_expr(e.cond, depth)
        then = print_block(e.then, depth)
        if isinstance(e.orelse, A.EIf):
            return f"if {cond} {then} else {print_expr(e.orelse, depth)}"
        return f"if {cond} {then} else {print_block(e.orelse, depth)}"
    if isinstance(e, A.EAnnot):
        inner = print_expr(e.expr, depth)
        if not isinstance(e.expr, (A.EVar, A.EApp, A.EInt, A.EString, A.ETuple, A.EUnit)):
            inner = f"({inner})"
        return f"{inner}:{print_type(e.annot)}"
    raise AssertionError(type(e))


def ast_equal(a, b) -> bool:
    """Structural equality that ignores spans."""
    if isinstance(a, Span) and isinstance(b, Span):
        return True
    if type(a) is not type(b):
        return False
    if isinstance(a, (list, tuple)):
        return len(a) == len(b) and all(ast_equal(x, y) for x, y in zip(a, b))
    if isinstance(a, Record):
        return all(ast_equal(getattr(a, f), getattr(b, f)) for f in slot_names(a))
    return a == b
