import pytest
from hypothesis import example, given, settings, strategies as st

from mutkill import solver as S
from mutkill import terms as T
from mutkill.terms import And, Bin, Cmp, Lit, Not, Or, Var

import conftest as C

DOMS = {"x": (-8, 7), "y": (-8, 7)}
H = S.SolverHandle.bounded(DOMS)


def x_lt(k):
    return Cmp("<", Var("x"), Lit(k))


class TestSimplify:
    def test_contradiction_folds_to_false(self):
        assert T.normalize_bool(And((x_lt(0), Cmp(">", Var("x"), Lit(0))))) == T.FALSE

    def test_idempotent(self):
        c = Or((x_lt(0), Not(x_lt(0))))
        assert T.normalize_bool(T.normalize_bool(c)) == T.normalize_bool(c)


class TestBounded:
    def test_sat_with_first_model(self):
        r = S.is_satisfiable(x_lt(0), H)
        assert r.is_sat
        assert r.model == {"x": -8}

    def test_unsat(self):
        r = S.is_satisfiable(And((x_lt(-3), Cmp(">", Var("x"), Lit(3)))), H)
        assert r.status == S.UNSAT

    def test_variable_free(self):
        assert S.is_satisfiable(T.TRUE, H).is_sat
        assert S.is_satisfiable(Cmp("==", Lit(1), Lit(2)), H).status == S.UNSAT

    def test_model_is_total_even_when_simplified_away(self):
        # x appears in the constraint but simplification could drop it
        c = And((Cmp("==", Var("x"), Var("x")), Cmp("==", Var("y"), Lit(3))))
        r = S.is_satisfiable(c, H)
        assert r.is_sat
        assert set(r.model) == {"x", "y"}
        assert T.holds(c, r.model)

    def test_missing_domain(self):
        with pytest.raises(S.SolverFailure, match="q"):
            S.is_satisfiable(Cmp("<", Var("q"), Lit(0)), H)

    def test_enumeration_cap(self):
        tight = S.SolverHandle.bounded(DOMS, max_points=4)
        with pytest.raises(S.SolverFailure, match="too large"):
            S.is_satisfiable(And((x_lt(0), Cmp("<", Var("y"), Lit(0)))), tight)

    def test_division_by_zero_model_excluded(self):
        # y = 0 would divide by zero; such valuations must not satisfy
        c = Cmp("==", Bin("/", Lit(4), Var("y")), Lit(2))
        models = list(S.enumerate_models(c, H))
        assert {"y": 0} not in models
        assert {"y": 2} in models

    def test_enumerate_models_complete_and_ordered(self):
        c = Or((Cmp("==", Var("x"), Lit(3)), Cmp("==", Var("x"), Lit(-2))))
        assert list(S.enumerate_models(c, H)) == [{"x": -2}, {"x": 3}]


class TestSmtlib:
    def test_script_structure(self):
        script = S.emit_smtlib(x_lt(0), DOMS)
        assert "(declare-const x Int)" in script
        assert "(assert (>= x (- 8)))" in script
        assert "(assert (<= x 7))" in script
        assert "(check-sat)" in script
        assert "(get-value (x))" in script
        assert "tdiv" not in script

    def test_division_defines_truncating_ops(self):
        script = S.emit_smtlib(
            Cmp("==", Bin("%", Var("x"), Lit(2)), Lit(0)), DOMS)
        assert "(define-fun tdiv" in script
        assert "(define-fun tmod" in script
        assert "(tmod x 2)" in script

    def test_undeclared_symbol_rejected(self):
        with pytest.raises(S.SolverFailure):
            S.emit_smtlib(Cmp("<", Var("q"), Lit(0)), DOMS)


def bool_constraints():
    ints = st.recursive(
        st.one_of(st.integers(-9, 9).map(Lit),
                  st.sampled_from(["x", "y"]).map(Var)),
        lambda kids: st.tuples(st.sampled_from("+-*/%"), kids, kids).map(
            lambda t: Bin(t[0], t[1], t[2])),
        max_leaves=5,
    )
    cmps = st.tuples(st.sampled_from(T.CMP_OPS), ints, ints).map(
        lambda t: Cmp(t[0], t[1], t[2]))
    return st.recursive(
        cmps,
        lambda kids: st.one_of(
            kids.map(Not),
            st.tuples(kids, kids).map(lambda t: And(t)),
            st.tuples(kids, kids).map(lambda t: Or(t)),
        ),
        max_leaves=6,
    )


import sys

EXT = S.SolverHandle.external(DOMS, (sys.executable, C.STUB), timeout=10.0)


class TestBackendAgreement:
    EXT = EXT

    @given(bool_constraints())
    # x/y cancels out of the comparison but still errors at y = 0
    @example(Not(And((Cmp("<", Lit(0), Lit(1)),
                      Cmp("<=", Bin("/", Var("x"), Var("y")),
                          Bin("/", Var("x"), Var("y")))))))
    @settings(max_examples=40, deadline=None)
    def test_verdicts_agree(self, c):
        b = S.is_satisfiable(c, H)
        e = S.is_satisfiable(c, self.EXT)
        assert b.status == e.status
        if b.is_sat and T.variables(c):
            assert T.holds(c, e.model)

    def test_external_model_matches_bounded_first_model(self):
        c = And((x_lt(0), Cmp(">", Var("y"), Lit(5))))
        b = S.is_satisfiable(c, H)
        e = S.is_satisfiable(c, self.EXT)
        assert b.model == e.model == {"x": -8, "y": 6}

    def test_external_division(self):
        c = Cmp("==", Bin("/", Var("x"), Var("y")), Lit(2))
        e = S.is_satisfiable(c, self.EXT)
        assert e.is_sat
        assert T.holds(c, e.model)


class TestExternalRobustness:
    def test_missing_command(self):
        h = S.SolverHandle.external(DOMS, ("/nonexistent/solver",))
        with pytest.raises(S.ExternalProcessFailure):
            S.is_satisfiable(x_lt(0), h)

    def test_garbage_output(self):
        import sys
        h = S.SolverHandle.external(
            DOMS, (sys.executable, "-c", "print('maybe')"))
        with pytest.raises(S.ExternalProcessFailure, match="verdict"):
            S.is_satisfiable(x_lt(0), h)

    def test_command_string_is_split(self):
        h = S.SolverHandle.external(DOMS, "python3 -V")
        assert h.external_cmd == ("python3", "-V")


class TestProperties:
    @given(bool_constraints())
    @settings(max_examples=60, deadline=None)
    def test_simplify_preserves_satisfiability(self, c):
        assert (S.is_satisfiable(c, H).is_sat
                == S.is_satisfiable(T.normalize_bool(c), H).is_sat)

    @given(bool_constraints())
    @settings(max_examples=60, deadline=None)
    def test_sat_models_actually_satisfy(self, c):
        r = S.is_satisfiable(c, H)
        if r.is_sat and T.variables(c):
            assert T.holds(c, r.model)


class TestTupleDisequality:
    def test_componentwise(self):
        d = S.tuple_disequality((Var("x"),), (Lit(3),))
        assert T.holds(d, {"x": 2})
        assert not T.holds(d, {"x": 3})

    def test_length_mismatch_is_true(self):
        assert S.tuple_disequality((Var("x"),), ()) == T.TRUE

    def test_empty_tuples_equal(self):
        assert not T.holds(S.tuple_disequality((), ()), {})
