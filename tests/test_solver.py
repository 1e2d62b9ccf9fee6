import itertools
import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from mutkill import solver as S
from mutkill import terms as T
from mutkill.terms import And, Bin, Cmp, Lit, Not, Or, Var

import conftest as C

DOMS = {"x": (-8, 7), "y": (-8, 7)}
H = S.SolverHandle.bounded(DOMS)
# two inputs whose queries enumerate exactly as many points as the solver
# needs to compile them: x and y over [-32, 31]
SIDE = math.isqrt(S._COMPILE_MIN_POINTS) // 2
BIG_DOMS = {"x": (-SIDE, SIDE - 1), "y": (-SIDE, SIDE - 1)}
BIG = S.SolverHandle.bounded(BIG_DOMS)


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
        # three inputs over the default domain: 2^24 points
        wide = S.SolverHandle.bounded({n: (-128, 127) for n in "xyz"})
        c = And(tuple(Cmp("<", Var(n), Lit(0)) for n in "xyz"))
        with pytest.raises(S.SolverFailure, match="too large"):
            S.is_satisfiable(c, wide)

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


def brute_force(c, h):
    """The valuations of c's variables that satisfy it under T.holds, in the
    solver's order: names sorted, values ascending."""
    doms = [(n, range(lo, hi + 1)) for n, (lo, hi) in h.domains if n in T.variables(c)]
    envs = (dict(zip([n for n, _ in doms], values))
            for values in itertools.product(*(r for _, r in doms)))
    return [env for env in envs if T.holds(c, env)]


x, y = Var("x"), Var("y")


class TestCompiledEnumeration:
    """Queries of at least `_COMPILE_MIN_POINTS` points run as a generated
    loop nest over the normalized constraint."""

    def test_big_handle_is_on_the_compiled_side(self):
        assert math.prod(hi - lo + 1 for lo, hi in BIG_DOMS.values()) >= S._COMPILE_MIN_POINTS

    # both sides of the threshold test the normalized constraint: the tree
    # walk over the small handle as well as the generated loop nest
    @pytest.mark.parametrize("h", [H, BIG], ids=["walked", "compiled"])
    @given(c=bool_constraints())
    # dividing comparisons of one variable each: a helper call tested before
    # the loop that binds its argument raises UnboundLocalError
    @example(c=And((Cmp("<", Bin("/", Lit(5), y), Lit(1)),
                    Cmp("==", Bin("%", x, Lit(3)), Lit(0)))))
    @settings(max_examples=100, deadline=None)
    def test_models_equal_brute_force(self, h, c):
        assert list(S.enumerate_models(c, h)) == brute_force(c, h)

    def test_negated_dividing_comparison_holds_at_zero_divisor(self):
        # x / y == 1 is false at y = 0, so its negation is true there
        c = And((Not(Cmp("==", Bin("/", x, y), Lit(1))), Cmp("==", x, y)))
        assert list(S.enumerate_models(c, BIG)) == [{"x": 0, "y": 0}]

    def test_variable_free_conjunct(self):
        div0 = Cmp("<", Bin("/", Lit(1), Lit(0)), Lit(1))  # false: divides by zero
        both = Cmp("<=", x, y)
        assert list(S.enumerate_models(And((both, div0)), BIG)) == []
        assert list(S.enumerate_models(And((both, Not(div0))), BIG)) == brute_force(both, BIG)

    def test_model_is_total_when_normalization_drops_a_variable(self):
        c = And((Cmp("==", x, x), Cmp("==", y, Lit(3))))
        models = list(S.enumerate_models(c, BIG))
        assert models == brute_force(c, BIG)
        assert models[0] == {"x": -SIDE, "y": 3}

    def test_outer_variable_conjunct_is_hoisted(self):
        entered = []

        class Inner:
            """y's range, recording each time its loop starts."""

            def __iter__(self):
                entered.append(True)
                return iter(range(-SIDE, SIDE))

        c = T.normalize_bool(And((Cmp("==", Bin("%", x, Lit(5)), Lit(0)), Cmp(">", y, x))))
        models = S._enumerator(c, ("x", "y"))(range(-SIDE, SIDE), Inner())
        assert list(models) == brute_force(c, BIG)
        assert len(entered) == len([v for v in range(-SIDE, SIDE) if v % 5 == 0])

    def test_deeper_than_one_generated_function_nests(self):
        power = x
        for _ in range(299):
            power = Bin("*", power, x)
        c = And((Cmp(">", y, Lit(SIDE - 4)), Cmp("==", power, Lit(1))))
        r = S.is_satisfiable(c, BIG)
        assert r.is_sat and r.model == brute_force(c, BIG)[0] == {"x": -1, "y": SIDE - 3}

    def test_more_variables_than_nested_loops(self):
        # 2^12 points over 21 variables, nine of them with one value each
        names = [f"v{i:02d}" for i in range(S._MAX_LOOPS + 1)]
        h = S.SolverHandle.bounded({n: (0, 1 if i < 12 else 0) for i, n in enumerate(names)})
        total = Var(names[0])
        for n in names[1:]:
            total = Bin("+", total, Var(n))
        c = Cmp("==", total, Lit(11))
        assert list(S.enumerate_models(c, h)) == brute_force(c, h)

    @pytest.mark.parametrize("n", [S._MAX_LOOPS + 1, S._MAX_LOOPS + 5])
    def test_innermost_names_run_as_one_product_loop(self, n, monkeypatch):
        # 2^12 points over n variables: twelve of them have two values, the
        # last six among them bound by the product loop past the nested ones
        names = [f"v{i:02d}" for i in range(n)]
        wide = {0, 2, 4, 6, 8, 10} | set(range(n - 6, n))
        h = S.SolverHandle.bounded({v: (0, int(i in wide)) for i, v in enumerate(names)})
        assert math.prod(hi - lo + 1 for _, (lo, hi) in h.domains) == 1 << 12
        total = Var(names[0])
        for v in names[1:]:
            total = Bin("+", total, Var(v))
        late = Bin("-", Var(names[-1]), Var(names[-2]))
        c = And((Cmp("<=", total, Lit(7)), Cmp("<", Var(names[2]), Lit(1)),
                 Cmp(">=", Bin("/", Lit(4), Bin("+", late, Lit(1))), Lit(2)),
                 Cmp("!=", Bin("+", Var(names[S._MAX_LOOPS - 1]), late), Lit(1))))
        want = brute_force(c, h)
        assert want and len(want) < 1 << 12
        # the compiled loop nest never walks the tree
        monkeypatch.setattr(T, "holds", None)
        assert list(S.enumerate_models(c, h)) == want


class TestDecision:
    """The bounded backend decides every query: no clock enters a verdict."""

    @pytest.mark.parametrize("doms", [DOMS, BIG_DOMS], ids=["walked", "compiled"])
    def test_verdict_ignores_the_clock(self, doms, monkeypatch):
        h = S.SolverHandle.bounded(doms)
        squares = Bin("+", Bin("*", x, x), Bin("*", y, y))
        no_model = Cmp("==", squares, Lit(3))  # no two squares sum to 3
        some_model = Cmp("==", squares, Lit(25))
        first = S.is_satisfiable(some_model, h)
        assert first.model == {"x": -5, "y": 0}
        now = [time.monotonic()]

        def jumping():
            now[0] += 1e6
            return now[0]

        monkeypatch.setattr(time, "monotonic", jumping)
        assert S.is_satisfiable(no_model, h).status == S.UNSAT
        assert S.is_satisfiable(some_model, h) == first


import sys

EXT = S.SolverHandle.external(DOMS, (sys.executable, C.STUB), timeout=10.0)


class TestBackendAgreement:
    EXT = EXT

    @given(bool_constraints())
    # x/y cancels out of the comparison but still errors at y = 0
    @example(Not(And((Cmp("<", Lit(0), Lit(1)),
                      Cmp("<=", Bin("/", Var("x"), Var("y")),
                          Bin("/", Var("x"), Var("y")))))))
    # a top-level comparison of a symbol with a term over symbols is a
    # constraint, not a domain bound
    @example(Cmp("<=", Var("x"), Var("x")))
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
