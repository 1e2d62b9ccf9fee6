import pytest
from hypothesis import given, settings, strategies as st

from mutkill import terms as T
from mutkill.terms import (And, Bin, BoolLit, Cmp, Lit, Neg, Not, Or, Var,
                           eval_bool, eval_int, holds, negate, normalize_bool,
                           normalize_int, render, subst)


names = st.sampled_from(["x", "y", "z"])


def int_terms(depth=3):
    base = st.one_of(
        st.integers(-20, 20).map(Lit),
        names.map(Var),
    )
    return st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(Neg),
            st.tuples(st.sampled_from(["+", "-", "*"]), kids, kids).map(
                lambda t: Bin(t[0], t[1], t[2])),
        ),
        max_leaves=8,
    )


def bool_terms():
    cmps = st.tuples(st.sampled_from(T.CMP_OPS), int_terms(), int_terms()).map(
        lambda t: Cmp(t[0], t[1], t[2]))
    return st.recursive(
        st.one_of(st.booleans().map(BoolLit), cmps),
        lambda kids: st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda t: And(t)),
            st.tuples(kids, kids).map(lambda t: Or(t)),
        ),
        max_leaves=8,
    )


envs = st.fixed_dictionaries({"x": st.integers(-8, 7),
                              "y": st.integers(-8, 7),
                              "z": st.integers(-8, 7)})


class TestEval:
    def test_truncated_division(self):
        assert T.trunc_div(7, 2) == 3
        assert T.trunc_div(-7, 2) == -3
        assert T.trunc_div(7, -2) == -3
        assert T.trunc_div(-7, -2) == 3
        assert T.trunc_mod(-7, 2) == -1
        assert T.trunc_mod(7, -2) == 1

    def test_division_by_zero_raises(self):
        with pytest.raises(T.EvalError):
            eval_int(Bin("/", Lit(1), Lit(0)), {})
        with pytest.raises(T.EvalError):
            eval_int(Bin("%", Var("x"), Var("y")), {"x": 1, "y": 0})

    def test_holds_treats_divzero_comparison_as_false(self):
        c = Cmp("==", Bin("/", Lit(4), Var("y")), Lit(2))
        assert holds(c, {"y": 2})
        assert not holds(c, {"y": 0})
        # inside a disjunction the other arm still decides
        assert holds(Or((c, BoolLit(True))), {"y": 0})

    @given(envs)
    def test_eval_bool_and_holds_agree_without_division(self, env):
        c = And((Cmp("<", Var("x"), Bin("+", Var("y"), Lit(1))),
                 Or((Cmp("==", Var("z"), Lit(0)), Cmp(">", Var("x"), Var("z"))))))
        assert eval_bool(c, env) == holds(c, env)


class TestSubst:
    def test_subst_int(self):
        t = Bin("+", Var("x"), Lit(1))
        assert subst(t, {"x": Lit(4)}) == Bin("+", Lit(4), Lit(1))

    def test_subst_through_bool(self):
        c = Cmp("<", Var("x"), Lit(0))
        assert subst(c, {"x": Bin("-", Var("y"), Lit(2))}) == \
            Cmp("<", Bin("-", Var("y"), Lit(2)), Lit(0))

    def test_variables(self):
        c = And((Cmp("<", Var("a"), Var("b")), Cmp("==", Var("a"), Lit(0))))
        assert T.variables(c) == frozenset({"a", "b"})


class TestNormalizeInt:
    def test_identities(self):
        x = Var("x")
        assert normalize_int(Bin("+", x, Lit(0))) == x
        assert normalize_int(Bin("*", x, Lit(1))) == x
        assert normalize_int(Bin("-", x, Lit(0))) == x
        assert normalize_int(Bin("*", x, Lit(0))) == Lit(0)

    def test_constant_folding(self):
        assert normalize_int(Bin("*", Lit(3), Lit(4))) == Lit(12)
        assert normalize_int(Bin("/", Lit(-7), Lit(2))) == Lit(-3)

    def test_structurally_distinct_but_equal_terms_converge(self):
        a = Bin("+", Var("x"), Bin("-", Var("y"), Var("y")))
        assert normalize_int(a) == Var("x")
        b = Bin("-", Bin("+", Var("x"), Lit(1)), Lit(1))
        assert normalize_int(b) == Var("x")

    def test_division_kept_opaque(self):
        t = Bin("/", Var("x"), Var("y"))
        assert T.has_division(normalize_int(t))

    @given(int_terms(), envs)
    @settings(max_examples=150)
    def test_normalization_preserves_value(self, t, env):
        assert eval_int(normalize_int(t), env) == eval_int(t, env)

    @given(int_terms())
    def test_idempotent(self, t):
        n = normalize_int(t)
        assert normalize_int(n) == n


class TestNormalizeBool:
    def test_reflexive_comparison(self):
        x = Var("x")
        assert normalize_bool(Cmp("==", x, x)) == T.TRUE
        assert normalize_bool(Cmp("!=", x, Bin("+", x, Lit(1)))) == T.TRUE
        assert normalize_bool(Cmp("==", x, Bin("+", x, Lit(1)))) == T.FALSE

    def test_and_identity_and_absorption(self):
        c = Cmp("<", Var("x"), Lit(0))
        assert normalize_bool(And((c, T.TRUE))) == normalize_bool(c)
        assert normalize_bool(And((c, T.FALSE))) == T.FALSE
        assert normalize_bool(Or((c, T.TRUE))) == T.TRUE

    def test_double_negation(self):
        c = Cmp("<", Var("x"), Lit(0))
        assert normalize_bool(Not(Not(c))) == normalize_bool(c)

    def test_contradictory_conjunction(self):
        lt = Cmp("<", Var("x"), Lit(0))
        gt = Cmp(">", Var("x"), Lit(0))
        assert normalize_bool(And((lt, gt))) == T.FALSE

    def test_selector_conjunction_is_contradictory(self):
        m = Var("mutId")
        one = Cmp("==", m, Lit(1))
        two = Cmp("==", m, Lit(2))
        assert normalize_bool(And((one, two))) == T.FALSE
        assert normalize_bool(And((one, Cmp("!=", m, Lit(1))))) == T.FALSE

    def test_cancelled_division_keeps_its_divisor_guard(self):
        # the comparison is false wherever evaluating x/y divides by zero,
        # even when x/y cancels out of the difference of its sides
        q = Bin("/", Var("x"), Var("y"))
        for t in (Cmp("<=", q, q), Cmp("<=", Bin("+", q, Var("z")), q)):
            n = normalize_bool(t)
            assert not holds(n, {"x": 3, "y": 0, "z": -1})
            assert holds(n, {"x": 3, "y": 2, "z": -1})

    @given(bool_terms(), envs)
    @settings(max_examples=150)
    def test_normalization_preserves_models(self, t, env):
        assert holds(normalize_bool(t), env) == holds(t, env)

    @given(bool_terms())
    def test_idempotent(self, t):
        n = normalize_bool(t)
        assert normalize_bool(n) == n

    @given(bool_terms(), envs)
    @settings(max_examples=100)
    def test_negate_flips_truth(self, t, env):
        assert holds(negate(t), env) == (not holds(t, env))


class TestRender:
    def test_precedence(self):
        t = Bin("*", Bin("+", Var("x"), Lit(1)), Lit(2))
        assert render(t) == "(x + 1) * 2"

    def test_negative_literal(self):
        assert render(Neg(Var("x"))) == "-x"
