import pytest
from hypothesis import given, settings, strategies as st

from mutkill import parser as P
from mutkill import terms as T

MINIMAL = "input x: int in [-8,7];\nfn main() { output x; }\n"


class TestParse:
    def test_minimal_program(self):
        ast = P.parse_program(P.SourceProgram(MINIMAL))
        assert len(ast.inputs) == 1
        assert len(ast.functions) == 1
        assert ast.inputs[0].name == "x"
        assert ast.input_domains == {"x": (-8, 7)}

    def test_undeclared_variable(self):
        with pytest.raises(P.SemanticError, match="y"):
            P.parse_text("fn main() { output y; }")

    def test_missing_main(self):
        with pytest.raises(P.SemanticError, match="main"):
            P.parse_text("input x: int in [0,1];\nfn helper() { output x; }")

    def test_duplicate_input(self):
        with pytest.raises(P.SemanticError):
            P.parse_text("input x: int in [0,1];\ninput x: int in [0,1];\n"
                         "fn main() { output x; }")

    def test_default_domain(self):
        ast = P.parse_text("input x: int;\nfn main() { output x; }")
        assert ast.input_domains == {"x": P.DEFAULT_DOMAIN}

    def test_syntax_error_position(self):
        with pytest.raises(P.MiniImpSyntaxError) as exc:
            P.parse_text("fn main() { output ; }")
        assert exc.value.pos[0] == 1

    def test_empty_source_rejected(self):
        with pytest.raises(ValueError):
            P.SourceProgram("")

    def test_type_confusion_rejected(self):
        with pytest.raises(P.SemanticError):
            P.parse_text("input x: int in [0,1];\n"
                         "fn main() { output x < 1; }")

    def test_call_arity_checked(self):
        with pytest.raises(P.SemanticError):
            P.parse_text("input x: int in [0,1];\n"
                         "fn f(a) { output a; }\n"
                         "fn main() { call f(x, x); }")

    def test_else_if_chain(self):
        ast = P.parse_text(
            "input x: int in [-4,3];\n"
            "fn main() { if (x > 0) { output 1; } else if (x < 0) "
            "{ output -1; } else { output 0; } }")
        body = ast.function("main").body
        assert isinstance(body[0], P.SIf)

    def test_comments_ignored(self):
        ast = P.parse_text("// leading\ninput x: int in [0,1]; // trailing\n"
                           "fn main() { output x; }\n")
        assert len(ast.inputs) == 1


_X = "input x: int in [-4,3];\n"
_F = "fn f(a) { output a; }\n"

# (program with exactly one error, exception class, message, position)
FRONT_END_ERRORS = [
    ("fn main() { output y; var y; }",
     P.SemanticError, "undeclared variable 'y'", (1, 20)),
    (_X + "fn main() { y = x; }",
     P.SemanticError, "undeclared variable 'y'", (2, 13)),
    (_X + "fn main() { output x; y = 1; var y; }",
     P.SemanticError, "undeclared variable 'y'", (2, 23)),
    ("fn f() { var y = 1; }\nfn main() { call f(); output y; }",
     P.SemanticError, "undeclared variable 'y'", (2, 30)),
    (_X + "fn main() { var y; output x; var y = 1; }",
     P.SemanticError, "duplicate declaration of 'y'", (2, 30)),
    (_X + "fn main() { var x = 1; output x; }",
     P.SemanticError, "duplicate declaration of 'x'", (2, 13)),
    ("fn main() { var x = 1; output x; }\ninput x: int in [0,1];",
     P.SemanticError, "duplicate declaration of 'x'", (1, 13)),
    (_X + "fn main() { output (x < 1) + 2; }",
     P.SemanticError, "expected int expression, found bool", (2, 23)),
    (_X + "fn main() { output -(x < 1); }",
     P.SemanticError, "expected int expression, found bool", (2, 24)),
    (_X + "fn main() { if ((x < 1) == 1) { output x; } }",
     P.SemanticError, "expected int expression, found bool", (2, 20)),
    (_X + "fn main() { if (1) { output x; } }",
     P.SemanticError, "expected bool expression, found int", (2, 17)),
    (_X + "fn main() { if (x) { output x; } }",
     P.SemanticError, "expected bool expression, found int", (2, 17)),
    (_X + "fn main() { while (-x) { output x; } }",
     P.SemanticError, "expected bool expression, found int", (2, 20)),
    (_X + "fn main() { while (x + 1) { output x; } }",
     P.SemanticError, "expected bool expression, found int", (2, 22)),
    (_X + "fn main() { if (!x) { output x; } }",
     P.SemanticError, "expected bool expression, found int", (2, 18)),
    (_X + "fn main() { if (x < 1 && x) { output x; } }",
     P.SemanticError, "expected bool expression, found int", (2, 26)),
    (_X + "fn main() { if (x * 2 || x < 1) { output x; } }",
     P.SemanticError, "expected bool expression, found int", (2, 19)),
    (_X + "fn main() { output x < 1; }",
     P.SemanticError, "expected int expression, found bool", (2, 22)),
    (_X + "fn main() { output (x < 1 && x > -1) * 2; }",
     P.SemanticError, "expected int expression, found bool", (2, 27)),
    (_X + "fn main() { var y; y = x == 1 || x == 2; }",
     P.SemanticError, "expected int expression, found bool", (2, 31)),
    (_X + "fn main() { var y = !(x < 1); }",
     P.SemanticError, "expected int expression, found bool", (2, 21)),
    (_X + _F + "fn main() { call f(x > 0); }",
     P.SemanticError, "expected int expression, found bool", (3, 22)),
    (_X + "fn main() { call g(x); }",
     P.SemanticError, "call to undefined function 'g'", (2, 13)),
    (_X + _F + "fn main() { call f(x, x); }",
     P.SemanticError, "function 'f' takes 1 argument(s), got 2", (3, 13)),
    (_X + _X + "fn main() { output x; }",
     P.SemanticError, "duplicate input 'x'", (2, 1)),
    (_X + _F + _F + "fn main() { output x; }",
     P.SemanticError, "duplicate function 'f'", (3, 1)),
    (_X + _F,
     P.SemanticError, "missing entry function 'main'", (0, 0)),
    (_X + "fn main(a) { output a; }",
     P.SemanticError, "entry function 'main' must take no parameters", (0, 0)),
    (_X + "fn f(x) { output x; }\nfn main() { call f(1); }",
     P.SemanticError, "parameter shadows input: 'x'", (2, 1)),
    ("input x: int in [3, 1];\nfn main() { output x; }",
     P.SemanticError, "empty domain [3,1] for input 'x'", (1, 1)),
    (_X + "fn main() { output x }",
     P.MiniImpSyntaxError, "expected ';', found '}'", (2, 22)),
]


@pytest.mark.parametrize("text, cls, message, pos", FRONT_END_ERRORS)
def test_front_end_errors(text, cls, message, pos):
    with pytest.raises(P.MiniImpError) as exc:
        P.parse_text(text)
    assert (type(exc.value), exc.value.message, exc.value.pos) == (cls, message, pos)


@pytest.mark.parametrize("text", [
    "fn main() { output x; }\ninput x: int in [0,1];",
    "fn main() { call f(1); }\nfn f(a) { output a; }",
    _X + "fn main() { if (x > 0) { var y = 1; } else { y = 2; } output y; }",
])
def test_front_end_accepts(text):
    P.parse_text(text)


# random program generator for the round-trip property

_names = st.sampled_from(["a", "b", "c"])


def _exprs(scope):
    # the tokenizer has no negative literals; -1 parses as negation of 1
    base = st.one_of(st.integers(0, 9).map(T.Lit),
                     st.sampled_from(scope).map(T.Var))
    return st.recursive(
        base,
        lambda kids: st.one_of(
            st.builds(T.Bin, st.sampled_from(T.ARITH_OPS), kids, kids),
            kids.map(T.Neg),
        ),
        max_leaves=5,
    )


def _conds(scope):
    expr = _exprs(scope)
    return st.recursive(
        st.builds(T.Cmp, st.sampled_from(T.CMP_OPS), expr, expr),
        lambda kids: st.one_of(
            st.tuples(kids, kids).map(T.And),
            st.tuples(kids, kids).map(T.Or),
            kids.map(T.Not),
        ),
        max_leaves=4,
    )


def _stmts(scope, depth=2):
    expr = _exprs(scope)
    cond = _conds(scope)
    assign = st.builds(P.SAssign, st.sampled_from(scope), expr)
    output = expr.map(P.SOutput)
    if depth == 0:
        return st.lists(st.one_of(assign, output), min_size=1, max_size=3)
    inner = _stmts(scope, depth - 1).map(tuple)
    sif = st.builds(P.SIf, cond, inner, inner)
    swhile = st.builds(P.SWhile, cond, inner)
    return st.lists(st.one_of(assign, output, sif, swhile), min_size=1, max_size=3)


# a pretty printer whose output parses back to the same Ast


def _render_stmt(s, indent: str, out: list):
    if isinstance(s, P.SVarDecl):
        if s.init is None:
            out.append(f"{indent}var {s.name};")
        else:
            out.append(f"{indent}var {s.name} = {T.render(s.init)};")
    elif isinstance(s, P.SAssign):
        out.append(f"{indent}{s.name} = {T.render(s.expr)};")
    elif isinstance(s, P.SOutput):
        out.append(f"{indent}output {T.render(s.expr)};")
    elif isinstance(s, P.SCall):
        args = ", ".join(T.render(a) for a in s.args)
        out.append(f"{indent}call {s.fn}({args});")
    elif isinstance(s, P.SIf):
        out.append(f"{indent}if ({T.render(s.cond)}) {{")
        for t in s.then:
            _render_stmt(t, indent + "    ", out)
        if s.els:
            out.append(f"{indent}}} else {{")
            for t in s.els:
                _render_stmt(t, indent + "    ", out)
        out.append(f"{indent}}}")
    elif isinstance(s, P.SWhile):
        out.append(f"{indent}while ({T.render(s.cond)}) {{")
        for t in s.body:
            _render_stmt(t, indent + "    ", out)
        out.append(f"{indent}}}")
    else:
        raise TypeError(f"not a statement: {s!r}")


def render_program(ast: P.Ast) -> str:
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


@given(_stmts(["a", "b", "c"]))
@settings(max_examples=100)
def test_render_reparse_roundtrip(stmts):
    decls = tuple(P.SVarDecl(n, None) for n in ["b", "c"])
    ast = P.Ast(
        inputs=(P.InputDecl("a", -8, 7),),
        functions=(P.FnDef("main", (), decls + tuple(stmts)),),
    )
    text = render_program(ast)
    again = P.parse_text(text)
    assert again == ast
