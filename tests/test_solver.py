import functools
import itertools
import math
import operator
import sys
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from mutkill import solver as S
from mutkill import terms as T
from mutkill.terms import And, Bin, Cmp, Lit, Neg, Not, Or, Var

import conftest as C

DOMS = {"x": (-8, 7), "y": (-8, 7)}
H = tuple(DOMS.items())
# two inputs whose queries enumerate exactly as many points as the solver
# needs to compile them: x and y over [-32, 31]
SIDE = math.isqrt(S._COMPILE_MIN_POINTS) // 2
BIG_DOMS = {"x": (-SIDE, SIDE - 1), "y": (-SIDE, SIDE - 1)}
BIG = tuple(BIG_DOMS.items())
# three inputs over [-8, 7]: as many points as BIG
CUBE = tuple((n, (-8, 7)) for n in "xyz")


def x_lt(k):
    return Cmp("<", Var("x"), Lit(k))


class TestSimplify:
    def test_contradiction_is_left_to_the_solver(self):
        # normalization only canonicalizes; the solver decides unsat
        c = And((x_lt(0), Cmp(">", Var("x"), Lit(0))))
        n = T.normalize_bool(c)
        assert isinstance(n, And) and len(n.items) == 2
        # both ways of deciding: truth sets, and the compiled loop nest
        for doms in (H, BIG):
            assert S.is_satisfiable(n, doms).status == S.UNSAT
            assert S.is_satisfiable(c, doms).status == S.UNSAT

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
        assert C.meaning(c, r.model)

    def test_missing_domain(self):
        # the second query is contradictory; it is not answered either
        for c in (Cmp("<", Var("q"), Lit(0)),
                  And((Cmp("<", Var("q"), Lit(0)), Cmp(">", Var("q"), Lit(0))))):
            with pytest.raises(S.SolverFailure, match="q"):
                S.is_satisfiable(c, H)

    def test_enumeration_cap(self):
        # three inputs over the default domain: 2^24 points
        wide = tuple((n, (-128, 127)) for n in "xyz")
        c = And(tuple(Cmp("<", Var(n), Lit(0)) for n in "xyz"))
        with pytest.raises(S.SolverFailure, match="too large") as e:
            S.is_satisfiable(c, wide)
        assert f"{1 << 24} points over x, y, z (limit {S.MAX_POINTS})" in str(e.value)

    def test_enumeration_cap_holds_when_a_conjunct_was_decided(self):
        # x < 0 alone is decided with the model x = -128, at which y < 0 and
        # z < 0 hold too; the query is still too large to decide
        wide = tuple((n, (-128, 127)) for n in "xyz")
        first = Cmp("<", Var("x"), Lit(0))
        assert S.is_satisfiable(first, wide).model == {"x": -128}
        c = And((first, Cmp("<", Var("y"), Lit(0)), Cmp("<", Var("z"), Lit(0))))
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


def brute_force(c, domains):
    """The valuations of c's variables that satisfy it by `C.meaning`, in the
    solver's order: names sorted, values ascending."""
    doms = [(n, range(lo, hi + 1)) for n, (lo, hi) in sorted(domains) if n in T.variables(c)]
    envs = (dict(zip([n for n, _ in doms], values))
            for values in itertools.product(*(r for _, r in doms)))
    return [env for env in envs if C.meaning(c, env)]


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
    """(domains, conjunction of `linear_atoms`) on the two- and three-input
    domains of the compiled side."""
    return st.sampled_from([BIG, CUBE]).flatmap(lambda h: st.tuples(
        st.just(h), st.lists(linear_atoms([n for n, _ in h]), min_size=1,
                             max_size=3).map(lambda atoms: And(tuple(atoms)))))


# two inputs over the default domains: 65 536 points per query
WIDE = (("x", (-128, 127)), ("y", (-128, 127)))


def extended_queries():
    """(guards of one path, guards of another, a difference): guards compare
    sums, products, quotients and remainders of x, y and literals inside or
    outside the default domain, and may be negated as the engine negates a
    guard that divides."""
    ints = st.recursive(
        st.one_of(st.integers(-3, 3).map(Lit), st.integers(-130, 130).map(Lit),
                  st.sampled_from([x, y])),
        lambda kids: st.tuples(st.sampled_from(T.ARITH_OPS), kids, kids).map(
            lambda t: Bin(t[0], t[1], t[2])),
        max_leaves=4)
    cmps = st.tuples(st.sampled_from(T.CMP_OPS), ints, ints).map(
        lambda t: Cmp(t[0], t[1], t[2]))
    guards = cmps | cmps.map(Not)
    diffs = st.lists(st.tuples(ints, ints), min_size=1, max_size=2).map(
        lambda pairs: Or(tuple(Cmp("!=", a, b) for a, b in pairs)))
    return st.tuples(st.lists(guards, min_size=1, max_size=4),
                     st.lists(guards, max_size=3), diffs)


def engine_path_queries(first, second, diff):
    """The queries the engine poses along two paths grown guard by guard from
    `true` (chains of binary `And`s), in order, then the kill query over the
    two paths and the difference."""
    queries = []
    for guards in (first, second):
        path = T.TRUE
        for g in guards:
            path = And((path, g))
            queries.append(path)
    second_path = queries[-1] if second else T.TRUE
    queries.append(And((queries[len(first) - 1], second_path, diff)))
    return queries


def _python(t):
    """An integer term over x and y as Python source, dividing as T does."""
    if isinstance(t, Lit):
        return repr(t.value)
    if isinstance(t, Var):
        return t.name
    left, right = _python(t.left), _python(t.right)
    if t.op in ("/", "%"):
        return f"T.trunc_{'div' if t.op == '/' else 'mod'}({left}, {right})"
    return f"({left} {t.op} {right})"


SIDE_VALUES = range(-128, 128)
WIDE_POINTS = len(SIDE_VALUES) ** 2


@functools.lru_cache(maxsize=None)
def wide_mask(c):
    """The points of WIDE's product (x outer, values ascending) at which c
    holds, as a bitmask: every comparison is run as a Python function of x
    and y at each point, false where it divides by zero, as in T.holds, and
    checked against T.holds at every 257th point."""
    everywhere = (1 << WIDE_POINTS) - 1
    if isinstance(c, And):
        return functools.reduce(operator.and_, map(wide_mask, c.items), everywhere)
    if isinstance(c, Or):
        return functools.reduce(operator.or_, map(wide_mask, c.items), 0)
    if isinstance(c, Not):
        return everywhere ^ wide_mask(c.operand)
    if isinstance(c, T.BoolLit):
        return everywhere if c.value else 0
    namespace = {"T": T}
    exec(f"def f(x, y):\n    try:\n        return {_python(c.left)} {c.op} {_python(c.right)}\n"
         "    except T.EvalError:\n        return False\n", namespace)
    f = namespace["f"]
    truth = [f(a, b) for a in SIDE_VALUES for b in SIDE_VALUES]
    for i in range(0, WIDE_POINTS, 257):
        a, b = divmod(i, len(SIDE_VALUES))
        env = {"x": SIDE_VALUES[a], "y": SIDE_VALUES[b]}
        assert truth[i] == T.holds(c, env)
    return int("".join("1" if t else "0" for t in reversed(truth)), 2)


def first_models(queries):
    """The first point, in the solver's order, at which each query holds
    over WIDE's domains (`wide_mask`), over the query's own variables; None
    where none does."""
    out = []
    for c in queries:
        mask = wide_mask(c)
        if not mask:
            out.append(None)
            continue
        a, b = divmod((mask & -mask).bit_length() - 1, len(SIDE_VALUES))
        point = {"x": SIDE_VALUES[a], "y": SIDE_VALUES[b]}
        out.append({n: v for n, v in point.items() if n in T.variables(c)})
    return out


class TestCompiledEnumeration:
    """Queries of at least `_COMPILE_MIN_POINTS` points run as a generated
    loop nest over the normalized constraint."""

    def test_big_handle_is_on_the_compiled_side(self):
        assert math.prod(hi - lo + 1 for lo, hi in BIG_DOMS.values()) >= S._COMPILE_MIN_POINTS
        assert math.prod(hi - lo + 1 for _, (lo, hi) in CUBE) >= S._COMPILE_MIN_POINTS

    # both sides of the threshold test the normalized constraint: the truth
    # sets over the small domains as well as the generated loop nest
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

    @given(q=extended_queries())
    # the second guard holds at the first model of the first; the kill
    # query's second path does not, so the kill query is enumerated
    @example(q=([Cmp(">", Bin("+", x, y), Lit(100)), Cmp("!=", Bin("%", x, Lit(3)), Lit(1))],
                [Cmp("<", y, Lit(0))], Or((Cmp("!=", x, y),))))
    # the first path is unsat, and so is the kill query
    @example(q=([Cmp("<", Bin("/", x, Lit(0)), Lit(1))], [], Or((Cmp("!=", x, y),))))
    @settings(max_examples=25, deadline=None)
    def test_extended_queries_equal_brute_force(self, q):
        # paths decided guard by guard, as the engine poses them, and the
        # kill query over two of them: with their prefixes decided first,
        # and each alone
        queries = engine_path_queries(*q)
        want = first_models(queries)
        got = []
        for c in queries:
            S._decisions.cache_clear()
            got.append(S.is_satisfiable(c, WIDE))
        S._decisions.cache_clear()
        assert got == [S.is_satisfiable(c, WIDE) for c in queries]
        assert [r.model for r in got] == want
        assert [r.is_sat for r in got] == [m is not None for m in want]

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
        h = tuple((n, (0, 1 if i < 12 else 0)) for i, n in enumerate(names))
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
        h = tuple((v, (0, int(i in wide))) for i, v in enumerate(names))
        assert math.prod(hi - lo + 1 for _, (lo, hi) in h) == 1 << 12
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
    of their own subterms, each computed once per term and domains."""

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


# one-, two- and three-input domains, each with 0 inside, small enough to
# walk point by point
SMALL_DOMAINS = [(("x", (-3, 3)),),
                 (("x", (-2, 3)), ("y", (-3, 1))),
                 (("x", (-2, 1)), ("y", (-1, 2)), ("z", (0, 2)))]


def truth_set_queries():
    """(domains, boolean term over their names): comparisons of sums,
    products, quotients and remainders, which divide by zero at some points
    or at all, under Neg, Not, nested And/Or and literals."""
    def terms(doms):
        names = [n for n, _ in doms]
        ints = st.recursive(
            st.one_of(st.integers(-3, 3).map(Lit), st.sampled_from(names).map(Var)),
            lambda kids: st.one_of(
                kids.map(Neg),
                st.tuples(st.sampled_from(T.ARITH_OPS), kids, kids).map(
                    lambda t: Bin(t[0], t[1], t[2]))),
            max_leaves=6)
        cmps = st.tuples(st.sampled_from(T.CMP_OPS), ints, ints).map(
            lambda t: Cmp(t[0], t[1], t[2]))
        bools = st.recursive(
            st.one_of(cmps, st.booleans().map(T.BoolLit)),
            lambda kids: st.one_of(
                kids.map(Not),
                st.lists(kids, max_size=3).map(lambda items: And(tuple(items))),
                st.lists(kids, max_size=3).map(lambda items: Or(tuple(items)))),
            max_leaves=6)
        return st.tuples(st.just(doms), bools)
    return st.sampled_from(SMALL_DOMAINS).flatmap(terms)


def holds_mask(c, doms):
    """Bit i set where c holds by `C.meaning` at the i-th point of the product
    of `doms`."""
    names = [n for n, _ in doms]
    points = itertools.product(*(range(lo, hi + 1) for _, (lo, hi) in doms))
    return sum(1 << i for i, values in enumerate(points)
               if C.meaning(c, dict(zip(names, values))))


class TestTruthSetColumns:
    """A truth set evaluates each integer subterm once over all the points
    of the domain, as a column, and combines the columns as bitmasks."""

    @given(q=truth_set_queries())
    # x / (y - y) divides by zero everywhere: the comparison is false at
    # every point and its negation true
    @example(q=(SMALL_DOMAINS[1], Not(Cmp("<", Bin("/", x, Bin("-", y, y)), Lit(0)))))
    # a remainder by an input that is 0 at some points, under Neg
    @example(q=(SMALL_DOMAINS[2], Or((Cmp("==", Neg(Bin("%", Var("z"), x)), Lit(1)),
                                      And((T.FALSE, Cmp("<", x, y)))))))
    @settings(max_examples=200, deadline=None)
    def test_truth_set_is_the_holds_mask(self, q):
        doms, c = q
        assert T.truth_set(c, doms) == holds_mask(c, doms)

    def test_building_a_truth_set_walks_no_tree(self, monkeypatch):
        # domains and terms that no other test builds, so nothing is cached
        doms = (("tsa", (-4, 4)), ("tsb", (-2, 5)))
        a, b = Var("tsa"), Var("tsb")
        shared = Bin("*", Bin("-", a, b), Bin("%", a, b))
        c = And((Cmp("<", shared, Lit(3)), Not(Cmp("==", Bin("/", shared, a), b)),
                 Or((Cmp(">", Neg(a), b), T.BoolLit(False)))))
        want = holds_mask(c, doms), brute_force(c, doms)
        calls = []
        holds = T.holds

        def counting(t, env):
            calls.append(t)
            return holds(t, env)

        monkeypatch.setattr(T, "holds", counting)
        assert (T.truth_set(c, doms), list(S.enumerate_models(c, doms))) == want
        assert calls == []


def engine_queries():
    """(domains, query shaped like the engine's): a path is a chain of
    binary `And`s, one guard per step, and a kill query the `And` of two
    paths and an `Or` of `!=`.  Guards compare sums, products, quotients
    and remainders, whose divisors are zero at some points or at all, and
    may be negated as the engine negates a guard that divides."""
    def queries(doms):
        names = [n for n, _ in doms]
        ints = st.recursive(
            st.one_of(st.integers(-3, 3).map(Lit), st.sampled_from(names).map(Var)),
            lambda kids: st.tuples(st.sampled_from(T.ARITH_OPS), kids, kids).map(
                lambda t: Bin(t[0], t[1], t[2])),
            max_leaves=4)
        cmps = st.tuples(st.sampled_from(T.CMP_OPS), ints, ints).map(
            lambda t: Cmp(t[0], t[1], t[2]))
        paths = st.lists(cmps | cmps.map(Not), min_size=1, max_size=6).map(
            lambda guards: functools.reduce(lambda p, g: And((p, g)), guards, T.TRUE))
        diffs = st.lists(st.tuples(ints, ints), min_size=1, max_size=3).map(
            lambda pairs: T.disj([Cmp("!=", a, b) for a, b in pairs]))
        kills = st.tuples(paths, paths, diffs).map(And)
        return st.tuples(st.just(doms), paths | kills)
    return st.sampled_from(SMALL_DOMAINS).flatmap(queries)


def normalized_first_model(c, doms):
    """The first model of `c` as the solver found it before it ANDed the
    query's own truth sets: None if `c` normalizes to false, else the first
    point, in the solver's order over `c`'s variables, at which the normal
    form holds."""
    norm = T.normalize_bool(c)
    if norm == T.FALSE:
        return None
    names = [n for n, _ in doms if n in T.variables(c)]
    ranges = [range(lo, hi + 1) for n, (lo, hi) in doms if n in T.variables(c)]
    for values in itertools.product(*ranges):
        env = dict(zip(names, values))
        if C.meaning(norm, env):
            return env
    return None


class TestRawQueries:
    """A small query is decided from the truth sets of its own subterms, the
    path's parts included, without normalizing it."""

    @given(q=engine_queries())
    # 0 % x divides by zero at x = 0, where the negated guard holds
    @example(q=(SMALL_DOMAINS[0], And((And((T.TRUE, Not(Cmp("<", Bin("%", Lit(0), x), Lit(1))))),
                                       Cmp(">=", x, Lit(0))))))
    @settings(max_examples=300, deadline=None)
    def test_verdict_and_first_model_match_normalize_then_enumerate(self, q):
        doms, c = q
        r = S.is_satisfiable(c, doms)
        want = normalized_first_model(c, doms)
        assert (r.status, r.model) == ((S.UNSAT, None) if want is None else (S.SAT, want))

    def test_a_deep_path_is_decided_at_the_default_recursion_limit(self):
        # a path of 3000 guards none of whose prefixes was decided, as for a
        # state that follows seeds: its truth set is built on an explicit
        # stack, one AND per level
        v = Var("deep_path_x")
        path = T.TRUE
        for i in range(3000):
            path = And((path, Cmp("!=", v, Lit(i % 5))))
        h = (("deep_path_x", (0, 7)),)
        assert S.is_satisfiable(path, h) == S.SolverResult(S.SAT, {"deep_path_x": 5})


class TestExtendedQueries:
    """A query of at least `_COMPILE_MIN_POINTS` points whose conjunct was
    decided starts from that conjunct's answer."""

    H = (("ext_x", (-128, 127)), ("ext_y", (-128, 127)))
    a, b = Var("ext_x"), Var("ext_y")

    def test_a_guard_that_holds_at_the_prefix_model_is_not_compiled(self, monkeypatch):
        prefix = And((T.TRUE, Cmp(">", Bin("+", self.a, self.b), Lit(100))))
        one_input = Cmp(">", self.a, Lit(10))
        earlier = Cmp(">", self.a, Lit(-30))
        never = Cmp("<", Bin("*", self.a, self.a), Lit(0))
        decided = [S.is_satisfiable(c, self.H) for c in (prefix, one_input, earlier, never)]
        assert [r.model for r in decided] == [{"ext_x": -26, "ext_y": 127}, {"ext_x": 11},
                                              {"ext_x": -29}, None]

        def refuse(*args):
            raise AssertionError("the query was normalized or compiled")

        monkeypatch.setattr(S, "_enumerator", refuse)
        monkeypatch.setattr(T, "normalize_bool", refuse)
        # -26 % 3 == -2: the prefix's model is the path's first model
        path = And((prefix, Cmp("!=", Bin("%", self.a, Lit(3)), Lit(1))))
        assert S.is_satisfiable(path, self.H) == decided[0]
        # a model over fewer inputs is completed with their low bounds
        both = And((one_input, Cmp("<", self.b, Lit(0))))
        assert S.is_satisfiable(both, self.H).model == {"ext_x": 11, "ext_y": -128}
        # of two decided conjuncts, the one whose completed model comes later
        # is tried: (-29, -128) falsifies the prefix, (-26, 127) is the model
        assert S.is_satisfiable(And((earlier, prefix)), self.H) == decided[0]
        # an unsat conjunct makes the query unsat
        assert S.is_satisfiable(And((prefix, never)), self.H).status == S.UNSAT

    def test_a_deep_conjunct_is_checked_at_the_default_recursion_limit(self):
        # the other conjunct is a path of 3000 guards, never decided
        first = Cmp(">", Bin("+", self.a, self.b), Lit(200))
        deep = T.TRUE
        for i in range(3000):
            deep = And((deep, Cmp("!=", Bin("-", self.a, self.b), Lit(i))))
        decided = S.is_satisfiable(first, self.H)
        assert decided.model == {"ext_x": 74, "ext_y": 127}
        assert S.is_satisfiable(And((first, deep)), self.H) == decided


class TestDecisionMemo:
    """`is_satisfiable` memoizes each decision by constraint and domains."""

    def test_repeated_query_is_answered_from_the_memo(self, monkeypatch):
        c = And((Cmp(">=", Var("memo_x"), Lit(2)), Cmp("!=", Var("memo_x"), Lit(4))))
        h = (("memo_x", (0, 7)),)
        first = S.is_satisfiable(c, h)
        assert first == S.SolverResult(S.SAT, {"memo_x": 2})
        # a repeated query is looked up, not normalized or evaluated again
        normalized = []
        normalize = T.normalize_bool

        def counting(t):
            normalized.append(t)
            return normalize(t)

        monkeypatch.setattr(T, "normalize_bool", counting)
        assert S.is_satisfiable(c, (("memo_x", (0, 7)),)) == first
        assert normalized == []

    def test_other_domains_get_their_own_answer(self):
        c = And((Cmp(">=", Var("memo_y"), Lit(2)), Cmp("!=", Var("memo_y"), Lit(4))))
        wide = (("memo_y", (-8, 7)),)
        narrow = (("memo_y", (3, 5)),)
        none = (("memo_y", (-8, 1)),)
        for _ in range(2):
            assert S.is_satisfiable(c, wide).model == {"memo_y": 2}
            assert S.is_satisfiable(c, narrow).model == {"memo_y": 3}
            assert S.is_satisfiable(c, none).status == S.UNSAT

    def test_a_missing_domain_fails_every_time(self):
        c = Cmp("<", Var("memo_q"), Lit(0))
        for _ in range(2):
            with pytest.raises(S.SolverFailure, match="memo_q"):
                S.is_satisfiable(c, H)


class TestDecision:
    """The bounded backend decides every query: no clock enters a verdict."""

    @pytest.mark.parametrize("h", [H, BIG], ids=["walked", "compiled"])
    def test_verdict_ignores_the_clock(self, h, monkeypatch):
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
            assert C.meaning(c, r.model)


class TestTupleDisequality:
    def test_componentwise(self):
        d = S.tuple_disequality((Var("x"),), (Lit(3),))
        assert T.holds(d, {"x": 2})
        assert not T.holds(d, {"x": 3})

    def test_length_mismatch_is_true(self):
        assert S.tuple_disequality((Var("x"),), ()) == T.TRUE

    def test_empty_tuples_equal(self):
        assert not T.holds(S.tuple_disequality((), ()), {})
