import itertools
import math
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from mutkill import solver as S
from mutkill import terms as T
from mutkill.terms import And, Bin, Cmp, Lit, Neg, Not, Or, Var

DOMS = {"x": (-8, 7), "y": (-8, 7)}
H = S.SolverHandle.bounded(DOMS)
# two inputs whose queries enumerate exactly as many points as the solver
# needs to compile them: x and y over [-32, 31]
SIDE = math.isqrt(S._COMPILE_MIN_POINTS) // 2
BIG_DOMS = {"x": (-SIDE, SIDE - 1), "y": (-SIDE, SIDE - 1)}
BIG = S.SolverHandle.bounded(BIG_DOMS)
# three inputs over [-8, 7]: as many points as BIG
CUBE = S.SolverHandle.bounded({n: (-8, 7) for n in "xyz"})


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
        with pytest.raises(S.SolverFailure, match="too large") as e:
            S.is_satisfiable(c, wide)
        assert f"{1 << 24} points over x, y, z (limit {S.MAX_POINTS})" in str(e.value)

    def test_division_by_zero_model_excluded(self):
        # y = 0 would divide by zero; such valuations must not satisfy
        c = Cmp("==", Bin("/", Lit(4), Var("y")), Lit(2))
        models = list(S.enumerate_models(c, H))
        assert {"y": 0} not in models
        assert {"y": 2} in models

    def test_enumerate_models_complete_and_ordered(self):
        c = Or((Cmp("==", Var("x"), Lit(3)), Cmp("==", Var("x"), Lit(-2))))
        assert list(S.enumerate_models(c, H)) == [{"x": -2}, {"x": 3}]


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


def linear_atoms(names):
    """`+v` or `-v` compared, either side first, with a sum of small
    multiples of the other names and a constant in [-300, 300], so that a
    bound falls inside, outside or across the domain.  At least half of the
    time v is the innermost loop's name and the constant lies in [-16, 16]."""
    def atom(v, sign, multiples, const, op, flip):
        side = Var(v) if sign > 0 else Neg(Var(v))
        rest = Lit(const)
        for n, k in zip([n for n in names if n != v], multiples):
            if k:
                rest = Bin("+", rest, Bin("*", Lit(k), Var(n)))
        return Cmp(op, rest, side) if flip else Cmp(op, side, rest)
    return st.builds(atom, st.just(names[-1]) | st.sampled_from(names),
                     st.sampled_from((1, -1)),
                     st.lists(st.integers(-2, 2), min_size=len(names) - 1,
                              max_size=len(names) - 1),
                     st.integers(-16, 16) | st.integers(-300, 300),
                     st.sampled_from(T.CMP_OPS), st.booleans())


def linear_queries():
    """(handle, conjunction of `linear_atoms`) on the two- and three-input
    handles of the compiled side."""
    return st.sampled_from([BIG, CUBE]).flatmap(lambda h: st.tuples(
        st.just(h), st.lists(linear_atoms([n for n, _ in h.domains]), min_size=1,
                             max_size=3).map(lambda atoms: And(tuple(atoms)))))


class TestCompiledEnumeration:
    """Queries of at least `_COMPILE_MIN_POINTS` points run as a generated
    loop nest over the normalized constraint."""

    def test_big_handle_is_on_the_compiled_side(self):
        assert math.prod(hi - lo + 1 for lo, hi in BIG_DOMS.values()) >= S._COMPILE_MIN_POINTS
        assert math.prod(hi - lo + 1 for _, (lo, hi) in CUBE.domains) >= S._COMPILE_MIN_POINTS

    # both sides of the threshold test the normalized constraint: the truth
    # sets over the small handle as well as the generated loop nest
    @pytest.mark.parametrize("h", [H, BIG], ids=["walked", "compiled"])
    @given(c=bool_constraints())
    # dividing comparisons of one variable each: a helper call tested before
    # the loop that binds its argument raises UnboundLocalError
    @example(c=And((Cmp("<", Bin("/", Lit(5), y), Lit(1)),
                    Cmp("==", Bin("%", x, Lit(3)), Lit(0)))))
    # x/y cancels out of the comparison but still errors at y = 0
    @example(c=Not(And((Cmp("<", Lit(0), Lit(1)), Cmp("<=", Bin("/", x, y), Bin("/", x, y))))))
    # a top-level comparison of a symbol with a term over symbols is a
    # constraint, not a domain bound
    @example(c=Cmp("<=", x, x))
    @settings(max_examples=100, deadline=None)
    def test_models_equal_brute_force(self, h, c):
        models = brute_force(c, h)
        assert list(S.enumerate_models(c, h)) == models
        # the verdict, through is_satisfiable's own short-cut for FALSE
        r = S.is_satisfiable(c, h)
        assert r.is_sat == bool(models)
        if models:
            names = T.variables(c)
            assert {n: v for n, v in r.model.items() if n in names} == models[0]

    @given(q=linear_queries())
    # y > x + 20 && y <= 10: y's range is empty for every x >= -10
    @example(q=(BIG, And((Cmp(">", y, Bin("+", x, Lit(20))), Cmp("<=", y, Lit(10))))))
    # y == 2 * x + 3 normalizes to 3 + 2 * x - y == 0: y's coefficient is -1
    @example(q=(BIG, Cmp("==", y, Bin("+", Bin("*", Lit(2), x), Lit(3)))))
    @settings(max_examples=80, deadline=None)
    def test_linear_bounds_equal_brute_force(self, q):
        h, c = q
        assert list(S.enumerate_models(c, h)) == brute_force(c, h)

    def test_equality_visits_one_inner_value_per_outer_value(self):
        # x + y == 3 pins y for each x: the generated code runs a few lines
        # per x (both loop headers and at most one model), not one per point
        lines = []

        def trace(frame, event, arg):
            if frame.f_code.co_filename != "<mutkill constraint>":
                return None
            if event == "line":
                lines.append(frame.f_lineno)
            return trace

        c = Cmp("==", Bin("+", x, y), Lit(3))
        before = sys.gettrace()
        sys.settrace(trace)
        try:
            models = list(S.enumerate_models(c, BIG))
        finally:
            sys.settrace(before)
        assert models == brute_force(c, BIG)
        assert len(lines) <= 4 * 2 * SIDE + 1

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
            """y's range, recording each time its loop starts: by iterating
            it, or by reading its start to narrow it."""

            stop = SIDE

            @property
            def start(self):
                entered.append(True)
                return -SIDE

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


class TestTruthSets:
    """Queries of fewer than `_COMPILE_MIN_POINTS` points AND the truth sets
    of their conjuncts, each computed once per conjunct and domain."""

    def test_prefix_sharing_queries_evaluate_each_conjunct_once_per_point(self, monkeypatch):
        atoms = [Cmp("!=", Bin("+", x, y), Lit(2)), Cmp(">", x, Lit(-6)),
                 Cmp("<", y, Lit(6)), Cmp("<=", Bin("-", x, y), Lit(4)),
                 Cmp(">=", Bin("*", x, y), Lit(-20))]
        # a path condition growing one branch at a time
        chain = [T.conj(atoms[:i]) for i in range(1, len(atoms) + 1)]
        want = [brute_force(c, H) for c in chain]
        assert len({T.normalize_bool(a) for a in atoms}) == len(atoms)
        calls = []
        holds = T.holds

        def counting(t, env):
            calls.append(t)
            return holds(t, env)

        monkeypatch.setattr(T, "holds", counting)
        got = [list(S.enumerate_models(c, H)) for c in chain]
        assert got == want
        points = math.prod(hi - lo + 1 for lo, hi in DOMS.values())
        assert len(calls) <= points * len(atoms)


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
