"""MiniImp front end: tokenizer, recursive-descent parser, semantic checks
and a pretty printer.

MiniImp is a small deterministic imperative language over exact integers:

    input x: int in [-8, 7];

    fn main() {
        var n;
        n = x + 1;
        if (n < 0) { output -n; } else { output n; }
        while (n > 0) { n = n - 1; }
        call helper(n);
    }

Expressions are built directly as ``terms`` nodes and are type- and
scope-checked as they are parsed; a term's type is its class.  Terms carry
no positions: the parser keeps each expression's position only long enough
to report an error at it.  Declarations and statements carry a 1-based
(line, column) position.  Input domains are inclusive and default to
[-128, 127] when omitted.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

from . import terms as T
from .terms import And, Bin, Cmp, Lit, Neg, Not, Or, Var

DEFAULT_DOMAIN = (-128, 127)

KEYWORDS = {"input", "int", "in", "fn", "var", "if", "else", "while", "output", "call", "main"}
RESERVED_NAMES = {"mutId"}


class MiniImpError(Exception):
    """Base class for front-end errors; carries a 1-based position."""

    def __init__(self, message: str, pos: Tuple[int, int] = (0, 0)):
        super().__init__(f"{pos[0]}:{pos[1]}: {message}" if pos != (0, 0) else message)
        self.message = message
        self.pos = pos


class MiniImpSyntaxError(MiniImpError):
    pass


class SemanticError(MiniImpError):
    pass


# ---------------------------------------------------------------------------
# Source and AST types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SourceProgram:
    text: str
    origin: str = "<inline>"

    def __post_init__(self):
        if not self.text:
            raise ValueError("empty source program")


Pos = Tuple[int, int]


def _pos_field():
    return field(default=(0, 0), compare=False, repr=False)


@dataclass(frozen=True)
class SVarDecl:
    name: str
    init: Optional[T.IntTerm]
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class SAssign:
    name: str
    expr: T.IntTerm
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class SIf:
    cond: T.BoolTerm
    then: tuple
    els: tuple
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class SWhile:
    cond: T.BoolTerm
    body: tuple
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class SOutput:
    expr: T.IntTerm
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class SCall:
    fn: str
    args: tuple
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class InputDecl:
    name: str
    lo: int
    hi: int
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class FnDef:
    name: str
    params: tuple
    body: tuple
    pos: Pos = _pos_field()


@dataclass(frozen=True)
class Ast:
    inputs: tuple  # InputDecl, in declaration order
    functions: tuple  # FnDef, in declaration order
    entry: str = "main"

    def function(self, name: str) -> FnDef:
        for f in self.functions:
            if f.name == name:
                return f
        raise KeyError(name)

    @property
    def input_domains(self) -> dict:
        return {d.name: (d.lo, d.hi) for d in self.inputs}


# ---------------------------------------------------------------------------
# Tokenizer
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<comment>//[^\n]*)
  | (?P<int>\d+)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op><=|>=|==|!=|&&|\|\||[-+*/%<>=!(){}\[\],;:])
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # 'int' | 'name' | 'op' | 'eof'
    text: str
    pos: Pos


def _tokenize(src: str) -> List[_Token]:
    tokens = []
    line, col = 1, 1
    i = 0
    while i < len(src):
        m = _TOKEN_RE.match(src, i)
        if m is None:
            raise MiniImpSyntaxError(f"unexpected character {src[i]!r}", (line, col))
        text = m.group(0)
        kind = m.lastgroup
        if kind not in ("ws", "comment"):
            tokens.append(_Token(kind, text, (line, col)))
        nl = text.count("\n")
        if nl:
            line += nl
            col = len(text) - text.rfind("\n")
        else:
            col += len(text)
        i = m.end()
    tokens.append(_Token("eof", "", (line, col)))
    return tokens


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


_BOOL_TERMS = (Cmp, And, Or, Not)


def _expect_type(term, pos: Pos, ty: str):
    """Return ``term`` if its type is ``ty`` ('int' or 'bool'), else raise a
    SemanticError at ``pos``, the position of the expression it was parsed
    from."""
    actual = "bool" if isinstance(term, _BOOL_TERMS) else "int"
    if actual != ty:
        raise SemanticError(f"expected {ty} expression, found {actual}", pos)
    return term


def _and(_, left, right):
    return And((left, right))


def _or(_, left, right):
    return Or((left, right))


class _Parser:
    """Recursive descent over the token list.  Expression methods return a
    ``(term, position)`` pair: the position is where an error about that
    expression is reported (its operator, its literal or name, or the inner
    expression of parentheses)."""

    def __init__(self, tokens: List[_Token]):
        self.tokens = tokens
        self.i = 0
        self.scope: set = set()  # parameters and locals of the function being parsed
        # checked once the whole program is read, since inputs and functions
        # may be declared after their use: every local declaration (it must
        # not be an input), every name outside `scope` (it must be an input)
        # and every call (callee, argument count)
        self.locals: List[Tuple[str, Pos]] = []
        self.uses: List[Tuple[str, Pos]] = []
        self.calls: List[Tuple[str, int, Pos]] = []

    @property
    def cur(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.cur
        self.i += 1
        return tok

    def expect(self, text: str) -> _Token:
        if self.cur.text != text:
            raise MiniImpSyntaxError(
                f"expected {text!r}, found {self.cur.text or 'end of input'!r}", self.cur.pos
            )
        return self.advance()

    def expect_name(self) -> _Token:
        tok = self.cur
        if tok.kind != "name" or tok.text in KEYWORDS - {"main"}:
            raise MiniImpSyntaxError(
                f"expected identifier, found {tok.text or 'end of input'!r}", tok.pos
            )
        if tok.text in RESERVED_NAMES:
            raise MiniImpSyntaxError(f"{tok.text!r} is a reserved name", tok.pos)
        return self.advance()

    def use(self, name: _Token) -> None:
        if name.text not in self.scope:
            self.uses.append((name.text, name.pos))

    def resolve(self, ast: Ast) -> None:
        """The scope and call checks that need the whole program."""
        inputs = ast.input_domains
        for name, pos in self.locals:
            if name in inputs:
                raise SemanticError(f"duplicate declaration of {name!r}", pos)
        for name, pos in self.uses:
            if name not in inputs:
                raise SemanticError(f"undeclared variable {name!r}", pos)
        functions = {f.name: f for f in ast.functions}
        for fn, nargs, pos in self.calls:
            if fn not in functions:
                raise SemanticError(f"call to undefined function {fn!r}", pos)
            arity = len(functions[fn].params)
            if nargs != arity:
                raise SemanticError(
                    f"function {fn!r} takes {arity} argument(s), got {nargs}", pos
                )

    def parse_program(self) -> Ast:
        inputs, functions = [], []
        while self.cur.kind != "eof":
            if self.cur.text == "input":
                inputs.append(self.parse_input())
            elif self.cur.text == "fn":
                functions.append(self.parse_fn())
            else:
                raise MiniImpSyntaxError(
                    f"expected 'input' or 'fn', found {self.cur.text!r}", self.cur.pos
                )
        return Ast(inputs=tuple(inputs), functions=tuple(functions))

    def parse_input(self) -> InputDecl:
        pos = self.expect("input").pos
        name = self.expect_name().text
        self.expect(":")
        self.expect("int")
        lo, hi = DEFAULT_DOMAIN
        if self.cur.text == "in":
            self.advance()
            self.expect("[")
            lo = self.parse_signed_int()
            self.expect(",")
            hi = self.parse_signed_int()
            self.expect("]")
        self.expect(";")
        if lo > hi:
            raise SemanticError(f"empty domain [{lo},{hi}] for input {name!r}", pos)
        return InputDecl(name, lo, hi, pos)

    def parse_signed_int(self) -> int:
        sign = 1
        if self.cur.text == "-":
            self.advance()
            sign = -1
        tok = self.cur
        if tok.kind != "int":
            raise MiniImpSyntaxError(f"expected integer, found {tok.text!r}", tok.pos)
        self.advance()
        return sign * int(tok.text)

    def parse_fn(self) -> FnDef:
        pos = self.expect("fn").pos
        name = self.advance()
        if name.kind != "name":
            raise MiniImpSyntaxError(f"expected function name, found {name.text!r}", name.pos)
        self.expect("(")
        params = []
        if self.cur.text != ")":
            params.append(self.expect_name().text)
            while self.cur.text == ",":
                self.advance()
                params.append(self.expect_name().text)
        self.expect(")")
        self.scope = set(params)
        body = self.parse_block()
        return FnDef(name.text, tuple(params), body, pos)

    def parse_block(self) -> tuple:
        self.expect("{")
        stmts = []
        while self.cur.text != "}":
            if self.cur.kind == "eof":
                raise MiniImpSyntaxError("unterminated block", self.cur.pos)
            stmts.append(self.parse_stmt())
        self.expect("}")
        return tuple(stmts)

    def parse_typed(self, ty: str):
        return _expect_type(*self.parse_expr(), ty)

    def parse_stmt(self):
        tok = self.cur
        if tok.text == "var":
            self.advance()
            name = self.expect_name().text
            if name in self.scope:
                raise SemanticError(f"duplicate declaration of {name!r}", tok.pos)
            init = None
            if self.cur.text == "=":
                self.advance()
                init = self.parse_typed("int")
            self.expect(";")
            self.scope.add(name)
            self.locals.append((name, tok.pos))
            return SVarDecl(name, init, tok.pos)
        if tok.text == "if":
            self.advance()
            self.expect("(")
            cond = self.parse_typed("bool")
            self.expect(")")
            then = self.parse_block()
            els: tuple = ()
            if self.cur.text == "else":
                self.advance()
                if self.cur.text == "if":
                    els = (self.parse_stmt(),)
                else:
                    els = self.parse_block()
            return SIf(cond, then, els, tok.pos)
        if tok.text == "while":
            self.advance()
            self.expect("(")
            cond = self.parse_typed("bool")
            self.expect(")")
            body = self.parse_block()
            return SWhile(cond, body, tok.pos)
        if tok.text == "output":
            self.advance()
            expr = self.parse_typed("int")
            self.expect(";")
            return SOutput(expr, tok.pos)
        if tok.text == "call":
            self.advance()
            name = self.advance()
            if name.kind != "name":
                raise MiniImpSyntaxError(f"expected function name, found {name.text!r}", name.pos)
            self.expect("(")
            args = []
            if self.cur.text != ")":
                args.append(self.parse_typed("int"))
                while self.cur.text == ",":
                    self.advance()
                    args.append(self.parse_typed("int"))
            self.expect(")")
            self.expect(";")
            self.calls.append((name.text, len(args), tok.pos))
            return SCall(name.text, tuple(args), tok.pos)
        if tok.kind == "name":
            name = self.expect_name()
            self.expect("=")
            self.use(name)
            expr = self.parse_typed("int")
            self.expect(";")
            return SAssign(name.text, expr, tok.pos)
        raise MiniImpSyntaxError(f"expected statement, found {tok.text or 'end of input'!r}", tok.pos)

    # expression precedence: || < && < ! < comparison < additive < multiplicative < unary
    def parse_expr(self):
        return self.parse_or()

    def combine(self, left, operand, ty: str, make):
        """Parse one binary operator and its right operand; both operands
        must have type ``ty``.  The left one is checked before the right one
        is parsed, so errors come in source order."""
        op = self.advance()
        _expect_type(*left, ty)
        right = _expect_type(*operand(), ty)
        return make(op.text, left[0], right), op.pos

    def parse_or(self):
        left = self.parse_and()
        while self.cur.text == "||":
            left = self.combine(left, self.parse_and, "bool", _or)
        return left

    def parse_and(self):
        left = self.parse_not()
        while self.cur.text == "&&":
            left = self.combine(left, self.parse_not, "bool", _and)
        return left

    def parse_not(self):
        if self.cur.text == "!":
            pos = self.advance().pos
            return Not(_expect_type(*self.parse_not(), "bool")), pos
        return self.parse_cmp()

    def parse_cmp(self):
        left = self.parse_additive()
        if self.cur.text in T.CMP_OPS:
            return self.combine(left, self.parse_additive, "int", Cmp)
        return left

    def parse_additive(self):
        left = self.parse_multiplicative()
        while self.cur.text in ("+", "-"):
            left = self.combine(left, self.parse_multiplicative, "int", Bin)
        return left

    def parse_multiplicative(self):
        left = self.parse_unary()
        while self.cur.text in ("*", "/", "%"):
            left = self.combine(left, self.parse_unary, "int", Bin)
        return left

    def parse_unary(self):
        tok = self.cur
        if tok.text == "-":
            self.advance()
            return Neg(_expect_type(*self.parse_unary(), "int")), tok.pos
        if tok.text == "(":
            self.advance()
            expr = self.parse_expr()
            self.expect(")")
            return expr
        if tok.kind == "int":
            self.advance()
            return Lit(int(tok.text)), tok.pos
        if tok.kind == "name":
            name = self.expect_name()
            self.use(name)
            return Var(name.text), name.pos
        raise MiniImpSyntaxError(f"expected expression, found {tok.text or 'end of input'!r}", tok.pos)


# ---------------------------------------------------------------------------
# Program-level checks
# ---------------------------------------------------------------------------


def check_ast(ast: Ast) -> None:
    seen_inputs = set()
    for d in ast.inputs:
        if d.name in seen_inputs:
            raise SemanticError(f"duplicate input {d.name!r}", d.pos)
        seen_inputs.add(d.name)
    fn_names = set()
    for f in ast.functions:
        if f.name in fn_names:
            raise SemanticError(f"duplicate function {f.name!r}", f.pos)
        fn_names.add(f.name)
    if ast.entry not in fn_names:
        raise SemanticError(f"missing entry function {ast.entry!r}")
    if ast.function(ast.entry).params:
        raise SemanticError(f"entry function {ast.entry!r} must take no parameters")
    for f in ast.functions:
        dup = set(f.params) & seen_inputs
        if dup:
            raise SemanticError(f"parameter shadows input: {sorted(dup)[0]!r}", f.pos)


def parse_program(src: SourceProgram) -> Ast:
    """Parse MiniImp source into a checked Ast.

    Raises MiniImpSyntaxError on grammatical errors and SemanticError on
    type errors, undeclared variables, missing main, duplicate inputs and
    arity errors.
    """
    parser = _Parser(_tokenize(src.text))
    ast = parser.parse_program()
    check_ast(ast)
    parser.resolve(ast)
    return ast


def parse_text(text: str, origin: str = "<inline>") -> Ast:
    return parse_program(SourceProgram(text, origin))


# ---------------------------------------------------------------------------
# Pretty printer (round-trips through parse_program)
# ---------------------------------------------------------------------------


def _render_stmt(s, indent: str, out: list):
    if isinstance(s, SVarDecl):
        if s.init is None:
            out.append(f"{indent}var {s.name};")
        else:
            out.append(f"{indent}var {s.name} = {T.render(s.init)};")
    elif isinstance(s, SAssign):
        out.append(f"{indent}{s.name} = {T.render(s.expr)};")
    elif isinstance(s, SOutput):
        out.append(f"{indent}output {T.render(s.expr)};")
    elif isinstance(s, SCall):
        args = ", ".join(T.render(a) for a in s.args)
        out.append(f"{indent}call {s.fn}({args});")
    elif isinstance(s, SIf):
        out.append(f"{indent}if ({T.render(s.cond)}) {{")
        for t in s.then:
            _render_stmt(t, indent + "    ", out)
        if s.els:
            out.append(f"{indent}}} else {{")
            for t in s.els:
                _render_stmt(t, indent + "    ", out)
        out.append(f"{indent}}}")
    elif isinstance(s, SWhile):
        out.append(f"{indent}while ({T.render(s.cond)}) {{")
        for t in s.body:
            _render_stmt(t, indent + "    ", out)
        out.append(f"{indent}}}")
    else:
        raise TypeError(f"not a statement: {s!r}")


def render_program(ast: Ast) -> str:
    out: list = []
    for d in ast.inputs:
        out.append(f"input {d.name}: int in [{d.lo}, {d.hi}];")
    for f in ast.functions:
        if out:
            out.append("")
        params = ", ".join(f.params)
        out.append(f"fn {f.name}({params}) {{")
        for s in f.body:
            _render_stmt(s, "    ", out)
        out.append("}")
    return "\n".join(out) + "\n"
