"""Recursive-descent parser for SL modules.

Grammar sketch (see README for the full version):

    module   ::= "module" IDENT import* decl*
    import   ::= "import" IDENT
    decl     ::= concept | model | fun | data
    concept  ::= "concept" IDENT "[" "Self" ("," IDENT)* "]" whereclause? "{" citem* "}"
    citem    ::= "type" IDENT | "fn" IDENT "(" tparams ")" "->" type
    model    ::= "model" (IDENT ":")? IDENT "[" type ("," type)* "]" whereclause? "{" mitem* "}"
    mitem    ::= "type" IDENT "=" type | fun
    fun      ::= "fn" IDENT ("[" IDENT ("," IDENT)* "]")? "(" tparams ")" "->" type whereclause? block
    data     ::= "data" IDENT ("[" IDENT ("," IDENT)* "]")? "{" ctor ("," ctor)* "}"
    whereclause ::= "where" constraint ("," constraint)*
    constraint  ::= type "==" type | IDENT "[" type ("," type)* "]"

Expressions are bidirectional-checker friendly: blocks are sequences of
`let`/expression statements ending in a value expression, lambdas are written
`fn(x, y) => e`, and `e : T` ascribes a type at call precedence:

    expr     ::= lambda | match | if | app (":" type)?
    app      ::= atom ("(" (expr ("," expr)*)? ")")*

`parse_expr` parses an `expr` in one frame, reading `self.tokens[self.pos]`
itself, and `parse_type` a type the same way. Tokens are the lexer's plain
tuples, whose fields are read through its index constants (`tok[KIND]`); a
one-token node or diagnostic takes the token's span from `token_span`, and
a longer node's span runs from its first token's start offset to its last
token's end offset.
"""

from __future__ import annotations

from . import ast as A
from .diagnostics import Abort, Diagnostic, Span
from .lexer import HI, KIND, LO, SOURCE, TEXT, VALUE, Token, token_span, tokenize

# The deepest nesting of expressions and types the parser accepts. A level
# costs at most three Python frames (parse_expr -> parse_parens -> comma_list
# -> parse_expr, or parse_if -> parse_block), and five from a lambda to a
# parameter's type, so at this limit the parser stays far below the
# interpreter's recursion limit; past it, E-PARSE.
MAX_NESTING = 12_000


class Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.source = tokens[0][SOURCE]
        self.pos = 0
        self.depth = 0  # open parse_expr and parse_type calls

    # ------------------------------------------------------------- plumbing

    # Token access needs no bound check: `tokenize` ends every list with an
    # `eof` token, which no rule consumes or looks past.
    def accept(self, kind: str) -> bool:
        """Consume the next token if it is a `kind`."""
        if self.tokens[self.pos][KIND] != kind:
            return False
        self.pos += 1
        return True

    def expect(self, kind: str, what: str | None = None) -> Token:
        tok = self.tokens[self.pos]
        if tok[KIND] != kind:
            expected = what or f"'{kind}'"
            self.fail(f"expected {expected}, found '{tok[TEXT] or 'end of file'}'", token_span(tok))
        self.pos += 1
        return tok

    def fail(self, msg: str, span: Span):
        raise Abort(Diagnostic("E-PARSE", msg, span, module=""))

    def too_deep(self, tok: Token):
        """`parse_expr` and `parse_type` each open one nesting level at their
        first token and close it on success; past MAX_NESTING this blames
        that token, and the parse ends."""
        self.fail(f"nesting exceeds the parser limit of {MAX_NESTING} levels", token_span(tok))

    def comma_list(self, item) -> list:
        """`item ("," item)*`: one or more items."""
        out = [item()]
        while self.tokens[self.pos][KIND] == ",":
            self.pos += 1
            out.append(item())
        return out

    def comma_list_until(self, close: str, item) -> list:
        """Zero or more comma-separated items, then the `close` token."""
        out = []
        while self.tokens[self.pos][KIND] != close:
            if out:
                self.expect(",")
            out.append(item())
        self.pos += 1
        return out

    def type_param(self) -> str:
        return self.expect("ident", "type parameter")[TEXT]

    def span_from(self, start: Token) -> Span:
        """From `start` to the last token consumed, which is never before it."""
        return Span(self.source, start[LO], self.tokens[self.pos - 1][HI])

    # ------------------------------------------------------------- module

    def parse_module(self) -> A.ModuleAST:
        first = self.tokens[0]
        if first[KIND] == "eof":
            self.fail("expected module header", token_span(first))
        start = self.expect("module", "module header")
        name = self.expect("ident", "module name")[TEXT]
        imports: list[str] = []
        import_spans: list[Span] = []
        while self.tokens[self.pos][KIND] == "import":
            isp = self.expect("import")
            imp = self.expect("ident", "module name")[TEXT]
            if imp in imports:
                self.fail(f"duplicate import of '{imp}'", self.span_from(isp))
            imports.append(imp)
            import_spans.append(self.span_from(isp))
        decls: list[A.DeclAST] = []
        while self.tokens[self.pos][KIND] != "eof":
            decls.append(self.parse_decl())
        return A.ModuleAST(self.span_from(start), name, tuple(imports), tuple(decls), tuple(import_spans))

    def parse_decl(self) -> A.DeclAST:
        tok = self.tokens[self.pos]
        if tok[KIND] == "concept":
            return self.parse_concept()
        if tok[KIND] == "model":
            return self.parse_model()
        if tok[KIND] == "fn":
            return self.parse_fun(allow_typarams=True)
        if tok[KIND] == "data":
            return self.parse_data()
        self.fail(f"expected declaration, found '{tok[TEXT] or 'end of file'}'", token_span(tok))

    # ------------------------------------------------------------- concept

    def parse_concept(self) -> A.ConceptAST:
        start = self.expect("concept")
        name = self.expect("ident", "concept name")[TEXT]
        self.expect("[")
        first = self.tokens[self.pos]
        if not (first[KIND] == "ident" and first[TEXT] == "Self"):
            self.expect("ident", "'Self'")
            self.fail("first concept parameter must be 'Self'", token_span(first))
        params = self.comma_list(self.type_param)
        self.expect("]")
        supers = self.parse_where_clause()
        self.expect("{")
        assoc: list[str] = []
        reqs: list[A.ReqSigAST] = []
        while self.tokens[self.pos][KIND] != "}":
            if self.accept("type"):
                assoc.append(self.expect("ident", "associated type name")[TEXT])
            elif self.tokens[self.pos][KIND] == "fn":
                rstart = self.expect("fn")
                rname = self.expect("ident", "requirement name")[TEXT]
                self.expect("(")
                rparams = self.comma_list_until(")", self.parse_param)
                self.expect("->")
                ret = self.parse_type()
                reqs.append(A.ReqSigAST(self.span_from(rstart), rname, tuple(rparams), ret))
            else:
                self.fail("expected 'type' or 'fn' inside concept", token_span(self.tokens[self.pos]))
        self.expect("}")
        return A.ConceptAST(self.span_from(start), name, tuple(params), tuple(supers), tuple(assoc), tuple(reqs))

    # ------------------------------------------------------------- model

    def parse_model(self) -> A.ModelAST:
        start = self.expect("model")
        name = None
        if self.tokens[self.pos][KIND] == "ident" and self.tokens[self.pos + 1][KIND] == ":":
            name = self.expect("ident")[TEXT]
            self.expect(":")
        concept = self.expect("ident", "concept name")[TEXT]
        self.expect("[")
        head = self.comma_list(self.parse_type)
        self.expect("]")
        context = self.parse_where_clause()
        self.expect("{")
        binds: list[A.AssocBindAST] = []
        bodies: list[A.FunAST] = []
        toks = self.tokens
        while toks[self.pos][KIND] != "}":
            if toks[self.pos][KIND] == "type":
                bstart = self.expect("type")
                member = self.expect("ident", "associated type name")[TEXT]
                self.expect("=")
                rhs = self.parse_type()
                binds.append(A.AssocBindAST(self.span_from(bstart), member, rhs))
            elif toks[self.pos][KIND] == "fn":
                bodies.append(self.parse_fun(allow_typarams=False))
            else:
                self.fail("expected 'type' binding or 'fn' body inside model", token_span(self.tokens[self.pos]))
        self.expect("}")
        return A.ModelAST(self.span_from(start), name, concept, tuple(head), tuple(context), tuple(binds),
                          tuple(bodies))

    # ------------------------------------------------------------- fn / data

    def parse_fun(self, allow_typarams: bool) -> A.FunAST:
        start = self.expect("fn")
        name = self.expect("ident", "function name")[TEXT]
        typarams: list[str] = []
        if self.tokens[self.pos][KIND] == "[":
            if not allow_typarams:
                self.fail("requirement bodies take no type parameters", token_span(self.tokens[self.pos]))
            self.pos += 1
            typarams = self.comma_list(self.type_param)
            self.expect("]")
        self.expect("(")
        params = self.comma_list_until(")", self.parse_param)
        self.expect("->")
        ret = self.parse_type()
        context = self.parse_where_clause()
        body = self.parse_block()
        return A.FunAST(self.span_from(start), name, tuple(typarams), tuple(params), ret, tuple(context), body)

    def parse_param(self, typed: bool = True) -> tuple[str, A.TypeExprAST | None]:
        """`name: T`, or in a lambda `name` with an optional `: T`."""
        pname = self.expect("ident", "parameter name")[TEXT]
        if not typed and self.tokens[self.pos][KIND] != ":":
            return (pname, None)
        self.expect(":")
        return (pname, self.parse_type())

    def parse_data(self) -> A.DataAST:
        start = self.expect("data")
        name = self.expect("ident", "data type name")[TEXT]
        params: list[str] = []
        if self.accept("["):
            params = self.comma_list(self.type_param)
            self.expect("]")
        self.expect("{")
        ctors: list[A.CtorAST] = []
        while self.tokens[self.pos][KIND] != "}":
            if ctors:
                self.expect(",")
                if self.tokens[self.pos][KIND] == "}":
                    break
            cstart = self.tokens[self.pos]
            cname = self.expect("ident", "constructor name")[TEXT]
            fields: list[A.TypeExprAST] = []
            if self.accept("("):
                fields = self.comma_list(self.parse_type)
                self.expect(")")
            ctors.append(A.CtorAST(self.span_from(cstart), cname, tuple(fields)))
        self.expect("}")
        if not ctors:
            self.fail("data type needs at least one constructor", self.span_from(start))
        return A.DataAST(self.span_from(start), name, tuple(params), tuple(ctors))

    # ------------------------------------------------------------- constraints

    def parse_where_clause(self) -> list[A.ConstraintAST]:
        if self.tokens[self.pos][KIND] != "where":
            return []
        self.pos += 1
        return self.comma_list(self.parse_constraint)

    def parse_constraint(self) -> A.ConstraintAST:
        start = self.tokens[self.pos]
        lhs = self.parse_type()
        if self.accept("=="):
            rhs = self.parse_type()
            return A.EqAST(self.span_from(start), lhs, rhs)
        if not (isinstance(lhs, A.TName) and lhs.args and not lhs.projections):
            self.fail("expected a conformance constraint `Concept[T, ...]`", self.span_from(start))
        return A.ConfAST(lhs.span, lhs.base, lhs.args)  # the same tokens as `lhs`

    # ------------------------------------------------------------- types

    def parse_type(self) -> A.TypeExprAST:
        toks, depth = self.tokens, self.depth
        start = toks[self.pos]
        if depth >= MAX_NESTING:
            self.too_deep(start)
        self.depth = depth + 1
        if start[KIND] != "ident":
            t = self.parse_paren_type(start)
        else:
            self.pos += 1
            args: tuple[A.TypeExprAST, ...] = ()
            if toks[self.pos][KIND] == "[":
                self.pos += 1
                args = tuple(self.comma_list(self.parse_type))
                self.expect("]")
            projections: tuple[str, ...] = ()
            while toks[self.pos][KIND] == "." and toks[self.pos + 1][KIND] == "ident":
                projections += (toks[self.pos + 1][TEXT],)
                self.pos += 2
            span = Span(self.source, start[LO], toks[self.pos - 1][HI])
            t = A.TName(span, start[TEXT], args, projections)
        self.depth = depth
        return t

    def parse_paren_type(self, start: Token) -> A.TypeExprAST:
        """A unit, function, tuple or parenthesised type, from its "(", and
        the projections after it."""
        self.expect("(", "a type")
        if self.accept(")"):
            if self.accept("->"):
                ret = self.parse_type()
                return A.TFn(self.span_from(start), (), ret)
            return A.TUnit(self.span_from(start))
        items = self.comma_list(self.parse_type)
        self.expect(")")
        if self.accept("->"):
            ret = self.parse_type()
            return A.TFn(self.span_from(start), tuple(items), ret)
        if len(items) == 1:
            base = items[0]
        elif len(items) == 2:
            base = A.TTuple(self.span_from(start), tuple(items))
        else:
            self.fail("tuple types have exactly two components", self.span_from(start))
        while self.tokens[self.pos][KIND] == "." and self.tokens[self.pos + 1][KIND] == "ident":
            self.pos += 2
            base = A.TProj(self.span_from(start), base, self.tokens[self.pos - 1][TEXT])
        return base

    # ------------------------------------------------------------- expressions

    def parse_block(self) -> A.ExprAST:
        start = self.expect("{")
        stmts: list[tuple] = []  # (name, annot, expr, start offset)
        tail: A.ExprAST | None = None
        while self.tokens[self.pos][KIND] != "}":
            if self.tokens[self.pos][KIND] == "let":
                lstart = self.expect("let")
                lname = self.expect("ident", "binding name")[TEXT]
                annot = None
                if self.accept(":"):
                    annot = self.parse_type()
                self.expect("=")
                bound = self.parse_expr()
                self.expect(";")
                stmts.append((lname, annot, bound, lstart[LO]))
                continue
            expr = self.parse_expr()
            if self.accept(";"):
                stmts.append(("_", None, expr, expr.span.lo))
                continue
            tail = expr
            break
        self.expect("}", "'}' closing block")
        if tail is None:
            self.fail("block must end with an expression", self.span_from(start))
        result = tail
        for name, annot, bound, first in reversed(stmts):
            result = A.ELet(Span(self.source, first, result.span.hi), name, annot, bound, result)
        return result

    def parse_expr(self) -> A.ExprAST:
        toks, pos, depth = self.tokens, self.pos, self.depth
        start = toks[pos]
        if depth >= MAX_NESTING:
            self.too_deep(start)
        self.depth = depth + 1
        kind = start[KIND]
        if kind == "ident":  # the commonest start, tested first
            expr = A.EVar(token_span(start), start[TEXT])
            self.pos = pos + 1
        elif kind in ("fn", "match", "if"):
            parse = self.parse_lambda if kind == "fn" else self.parse_match if kind == "match" else self.parse_if
            expr = parse()
            self.depth = depth
            return expr
        elif kind == "(":
            expr = self.parse_parens(start)
        else:
            # `1:U64` and `1:U8` are one node, with no node or span built for
            # the bare literal or its type; at the nesting limit the
            # annotation below fails
            if kind == "int" and toks[pos + 1][KIND] == ":" and self.depth < MAX_NESTING:
                width, after = toks[pos + 2], toks[pos + 3 : pos + 5]
                if width[KIND] == "ident" and width[TEXT] in ("U64", "U8") and not (
                    after[0][KIND] == "[" or after[0][KIND] == "." and after[1][KIND] == "ident"
                ):
                    self.pos = pos + 3
                    self.depth = depth
                    return self.narrow(start, start[VALUE], width[TEXT], start[TEXT])
            span = token_span(start)
            if kind == "int":
                expr = A.EInt(span, start[VALUE], None, start[TEXT])
            elif kind == "string":
                expr = A.EString(span, start[VALUE])
            elif kind == "float":
                expr = A.EFloat(span, start[VALUE])
            elif kind == "true" or kind == "false":
                expr = A.EBool(span, kind == "true")
            else:
                self.fail(f"expected an expression, found '{start[TEXT] or 'end of file'}'", span)
            self.pos = pos + 1
        nxt = toks[self.pos]
        while nxt[KIND] == "(":
            self.pos += 1
            args = []
            if toks[self.pos][KIND] != ")":
                args.append(self.parse_expr())
                while toks[self.pos][KIND] == ",":
                    self.pos += 1
                    args.append(self.parse_expr())
                if toks[self.pos][KIND] != ")":
                    self.expect(",")  # fails
            expr = A.EApp(Span(self.source, start[LO], toks[self.pos][HI]), expr, tuple(args))
            self.pos += 1
            nxt = toks[self.pos]
        if nxt[KIND] == ":":
            self.pos += 1
            annot = self.parse_type()
            if isinstance(expr, A.EInt) and expr.width is None and isinstance(annot, A.TName) \
                    and annot.base in ("U64", "U8") and not annot.args and not annot.projections:
                expr = self.narrow(start, expr.value, annot.base, expr.lexeme)
            else:
                expr = A.EAnnot(self.span_from(start), expr, annot)
        self.depth = depth
        return expr

    def parse_lambda(self) -> A.ExprAST:
        start = self.expect("fn")
        self.expect("(")
        params = self.comma_list_until(")", lambda: self.parse_param(typed=False))
        self.expect("=>")
        body = self.parse_expr()
        return A.ELambda(self.span_from(start), tuple(params), body)

    def parse_match(self) -> A.ExprAST:
        start = self.expect("match")
        scrutinee = self.parse_expr()
        self.expect("{")
        arms: list[A.EMatchArm] = []
        while self.tokens[self.pos][KIND] != "}":
            if arms:
                self.expect(",")
                if self.tokens[self.pos][KIND] == "}":
                    break
            astart = self.tokens[self.pos]
            if self.accept("_"):
                ctor = None
                binders: tuple[str, ...] = ()
            else:
                ctor = self.expect("ident", "constructor pattern")[TEXT]
                names: list[str] = []
                if self.accept("("):
                    names = self.comma_list_until(")", self.parse_binder)
                binders = tuple(names)
            self.expect("=>")
            body = self.parse_expr()
            arms.append(A.EMatchArm(self.span_from(astart), ctor, binders, body))
        self.expect("}")
        if not arms:
            self.fail("match needs at least one arm", self.span_from(start))
        return A.EMatch(self.span_from(start), scrutinee, tuple(arms))

    def parse_binder(self) -> str:
        if self.tokens[self.pos][KIND] == "_":
            return self.expect("_")[TEXT]
        return self.expect("ident", "pattern binder")[TEXT]

    def parse_if(self) -> A.ExprAST:
        start = self.expect("if")
        cond = self.parse_expr()
        then = self.parse_block()
        self.expect("else")
        # `else if` goes through parse_expr, so a long chain counts as nesting
        orelse = self.parse_expr() if self.tokens[self.pos][KIND] == "if" else self.parse_block()
        return A.EIf(self.span_from(start), cond, then, orelse)

    def narrow(self, start: Token, value: int, width: str, lexeme: str) -> A.EInt:
        """The literal from `start` to the last token consumed, of type `width`."""
        if value >= (2**64 if width == "U64" else 2**8):
            self.fail(f"literal out of range for {width}", self.span_from(start))
        return A.EInt(self.span_from(start), value, width, lexeme)

    def parse_parens(self, start: Token) -> A.ExprAST:
        """A unit, tuple or parenthesised expression, from its "("."""
        self.pos += 1
        if self.accept(")"):
            return A.EUnit(self.span_from(start))
        items = self.comma_list(self.parse_expr)
        self.expect(")")
        if len(items) == 1:
            return items[0]
        if len(items) == 2:
            return A.ETuple(self.span_from(start), tuple(items))
        self.fail("tuples have exactly two components", self.span_from(start))


def parse_module(text: str, file: str) -> A.ModuleAST | list[Diagnostic]:
    """Parse one SL source file; diagnostics instead of an AST on failure."""
    try:
        tokens = tokenize(text, file)
        return Parser(tokens).parse_module()
    except Abort as exc:
        return [exc.diagnostic]


def parse_module_bytes(data: bytes, file: str) -> A.ModuleAST | list[Diagnostic]:
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        return [Diagnostic("E-ENCODING", f"source is not valid UTF-8: {exc.reason}", Span.at(file))]
    return parse_module(text, file)
