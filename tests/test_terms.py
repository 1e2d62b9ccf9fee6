import copy
import pickle
import sys

import pytest
from hypothesis import example, given, settings, strategies as st

from mutkill import mutation as M
from mutkill import terms as T
from mutkill.record import Record
from mutkill.terms import (And, Bin, BoolLit, Cmp, Lit, Neg, Not, Or, Var,
                           holds, negate, normalize_bool, normalize_int, render,
                           subst)

import conftest as C
from conftest import eval_bool, eval_int


names = st.sampled_from(["x", "y", "z"])


def int_terms(division=False):
    """Integer terms over x, y, z; with `division`, also `/` and `%`."""
    base = st.one_of(
        st.integers(-20, 20).map(Lit),
        names.map(Var),
    )
    ops = T.ARITH_OPS if division else ["+", "-", "*"]
    return st.recursive(
        base,
        lambda kids: st.one_of(
            kids.map(Neg),
            st.tuples(st.sampled_from(ops), kids, kids).map(
                lambda t: Bin(t[0], t[1], t[2])),
        ),
        max_leaves=8,
    )


def bool_terms(division=False):
    cmps = st.tuples(st.sampled_from(T.CMP_OPS), int_terms(division),
                     int_terms(division)).map(lambda t: Cmp(t[0], t[1], t[2]))
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

    @given(bool_terms(division=True), envs)
    def test_holds_is_the_meaning_of_the_connectives(self, t, env):
        assert holds(t, env) == C.meaning(t, env)

    def test_holds_past_the_recursion_limit(self):
        # a path of 5000 guards, a chain of 5000 disjunctions whose innermost
        # arm decides it, and 5001 negations
        x = Var("x")
        path = ors = BoolLit(True)
        for i in range(5000):
            path = And((path, Cmp("!=", x, Lit(i))))
            ors = Or((Cmp("==", x, Lit(i)), ors if i else Cmp("<", x, Lit(0))))
        negations = Cmp("<", x, Lit(0))
        for _ in range(5001):
            negations = Not(negations)
        assert [holds(t, {"x": -1}) for t in (path, ors, negations)] == [True, True, False]
        assert [holds(t, {"x": 5000}) for t in (path, ors, negations)] == [True, False, True]
        assert holds(path, {"x": 0}) is False and holds(ors, {"x": 0}) is True

    def test_holds_reuses_what_an_earlier_call_at_its_point_evaluated(self, monkeypatch):
        # a variable that no other test builds, so nothing is memoized yet
        shared = Bin("+", Var("holds_memo_a"), Lit(1))
        applied = []
        add = T.ARITH["+"]

        def counting(a, b):
            applied.append((a, b))
            return add(a, b)

        monkeypatch.setitem(T.ARITH, "+", counting)
        env = {"holds_memo_a": 2}
        assert holds(Cmp("<", shared, Lit(5)), env) and holds(Cmp(">", shared, Lit(0)), env)
        assert applied == [(2, 1)]

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

    def test_cancelled_division_keeps_its_divisor_guard(self):
        # the comparison is false wherever evaluating x/y divides by zero,
        # even when x/y cancels out of the difference of its sides
        q = Bin("/", Var("x"), Var("y"))
        for t in (Cmp("<=", q, q), Cmp("<=", Bin("+", q, Var("z")), q)):
            n = normalize_bool(t)
            assert not holds(n, {"x": 3, "y": 0, "z": -1})
            assert holds(n, {"x": 3, "y": 2, "z": -1})

    # with division too: the solver's compiled enumeration evaluates
    # normalize_bool(c), not c
    @given(st.one_of(bool_terms(), bool_terms(division=True)), envs)
    @settings(max_examples=300)
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


def pairwise_conjunction(children):
    """`normalize_bool(And(children))` for normalized children: their
    items, flattened, deduplicated and sorted."""
    flat = []
    for c in children:
        if c == T.FALSE:
            return T.FALSE
        if c != T.TRUE:
            flat.extend(c.items if isinstance(c, And) else (c,))
    return T.conj(sorted(dict.fromkeys(flat), key=T._sort_key))


def linear_atoms():
    """`k*x + m*y + c OP d` with small coefficients: over one pool of them,
    children share items, some of which normalize alike only after
    dividing by a content."""
    side = st.builds(lambda k, m, c: Bin("+", Bin("+", Bin("*", Lit(k), Var("x")),
                                                   Bin("*", Lit(m), Var("y"))), Lit(c)),
                     st.integers(-2, 2), st.sampled_from((0, 0, 1, -1)), st.integers(-3, 3))
    return st.builds(Cmp, st.sampled_from(T.CMP_OPS), side, st.integers(-2, 2).map(Lit))


def normalized_children():
    """Normalized conjunctions of atoms drawn from one pool, so that
    children share items, and normalized random terms."""
    def children(pool):
        conjunction = st.lists(st.sampled_from(pool), min_size=1, max_size=4).map(
            lambda atoms: normalize_bool(And(tuple(atoms))))
        return st.lists(conjunction | bool_terms(division=True).map(normalize_bool),
                        min_size=1, max_size=4)
    return st.lists(linear_atoms(), min_size=2, max_size=6).flatmap(children)


X_POS = Cmp(">", Var("x"), Lit(0))
TWICE_X_NONPOS = Cmp("<=", Bin("*", Lit(2), Var("x")), Lit(0))
Y_NEG = Cmp("<", Var("y"), Lit(0))


class TestConjunctions:
    @given(normalized_children())
    # the two children share y < 0, and one item of each contradicts the
    # other, which normalization leaves to the solver
    @example([normalize_bool(And((Y_NEG, TWICE_X_NONPOS))), normalize_bool(And((Y_NEG, X_POS)))])
    # the second and the third child contradict
    @example([normalize_bool(t) for t in (Y_NEG, X_POS, TWICE_X_NONPOS)])
    @settings(max_examples=300, deadline=None)
    def test_incremental_checks_equal_every_pair(self, children):
        assert normalize_bool(And(tuple(children))) == pairwise_conjunction(children)


class TestTracerCounters:
    def test_normalize_bool_cache_counts_every_call(self, monkeypatch):
        # the benchmark's tracer wraps the module attribute `normalize_bool`
        # and reads the hit ratio off `cache_info()` of the function under
        # the wrapper's `__wrapped__`, as this test does
        calls = []
        cached = T.normalize_bool

        def counting(t):
            calls.append(t)
            return cached(t)

        counting.__wrapped__ = cached
        monkeypatch.setattr(T, "normalize_bool", counting)
        before = counting.__wrapped__.cache_info()
        # a term no other test builds, so its first normalization misses
        q, d = Var("tracer_q"), Var("tracer_d")
        t = And((Cmp("<", q, Lit(0)), Not(Cmp("<=", Bin("/", q, d), q)),
                 Or((Cmp("==", d, Lit(2)), Not(Cmp(">", q, d))))))
        assert T.normalize_bool(t) is T.normalize_bool(t)
        after = counting.__wrapped__.cache_info()
        assert after.misses > before.misses and after.hits > before.hits
        assert (after.hits + after.misses) - (before.hits + before.misses) == len(calls)


class TestRender:
    def test_precedence(self):
        t = Bin("*", Bin("+", Var("x"), Lit(1)), Lit(2))
        assert render(t) == "(x + 1) * 2"

    def test_negative_literal(self):
        assert render(Neg(Var("x"))) == "-x"


x, y = Var("x"), Var("y")
# literals whose values are equal but print differently (1 and True) among
# nodes of every class
MIXED = [
    Lit(1), Lit(True), Lit(-1), Lit(10), Var("y"), Var("X"), x,
    BoolLit(True), BoolLit(1), BoolLit(False),
    Bin("+", x, Lit(1)), Bin("*", Lit(2), y), Bin("/", x, Bin("-", y, Lit(1))),
    Neg(x), Not(Cmp("==", x, y)), Cmp("<", Bin("-", x, y), Lit(0)),
    Cmp("!=", Bin("%", x, Lit(2)), Lit(0)), And((Cmp("<", x, Lit(0)),)),
    And((Cmp("<", x, Lit(0)), Cmp("==", y, Lit(2)))),
    Or((BoolLit(True), Cmp(">=", Neg(y), x))),
]
DEPTH = 5000


def deep_sum(n):
    t = Var("v0")
    for i in range(1, n):
        t = Bin("+", t, Var(f"v{i % 7}"))
    return t


def deep_path(n):
    p = T.TRUE
    for i in range(n):
        p = And((p, Cmp("<", Var(f"v{i % 7}"), Lit(i))))
    return p


class TestInterning:
    def test_equal_constructions_are_one_node(self):
        def build():
            return And((Cmp("<", Bin("+", Var("x"), Lit(1)), Lit(0)), Not(BoolLit(False))))
        assert build() is build()
        assert Bin(op="-", left=x, right=y) is Bin("-", x, y)

    def test_replace_and_rewrites_go_through_the_table(self):
        t = Bin("+", x, Lit(1))
        assert t.replace(op="-") is Bin("-", x, Lit(1))
        assert t.replace() is t
        assert Bin("*", x, Lit(1)) in M._aor(t)
        assert any(new is Cmp("<", Bin("-", x, Lit(1)), y)
                   for new, _, _ in M._rewrites(Cmp("<", t, y), M._aor))

    def test_copies_are_the_node(self):
        t = MIXED[-1]
        assert pickle.loads(pickle.dumps(t)) is t
        assert copy.copy(t) is t and copy.deepcopy(t) is t

    def test_nodes_are_immutable(self):
        with pytest.raises(AttributeError):
            x.name = "y"

    def test_equal_values_of_different_types_stay_apart(self):
        assert Lit(1) is not Lit(True) and BoolLit(1) is not BoolLit(True)
        assert repr(Lit(True)) == "Lit(value=True)"
        assert repr(BoolLit(1)) == "BoolLit(value=1)"

    def test_repr_and_sort_order_are_the_dataclass_ones(self):
        assert [repr(t) for t in MIXED] == [
            'Lit(value=1)', 'Lit(value=True)', 'Lit(value=-1)', 'Lit(value=10)',
            "Var(name='y')", "Var(name='X')", "Var(name='x')", 'BoolLit(value=True)',
            'BoolLit(value=1)', 'BoolLit(value=False)',
            "Bin(op='+', left=Var(name='x'), right=Lit(value=1))",
            "Bin(op='*', left=Lit(value=2), right=Var(name='y'))",
            "Bin(op='/', left=Var(name='x'), right=Bin(op='-', left=Var(name='y'), "
            "right=Lit(value=1)))",
            "Neg(operand=Var(name='x'))",
            "Not(operand=Cmp(op='==', left=Var(name='x'), right=Var(name='y')))",
            "Cmp(op='<', left=Bin(op='-', left=Var(name='x'), right=Var(name='y')), "
            "right=Lit(value=0))",
            "Cmp(op='!=', left=Bin(op='%', left=Var(name='x'), right=Lit(value=2)), "
            "right=Lit(value=0))",
            "And(items=(Cmp(op='<', left=Var(name='x'), right=Lit(value=0)),))",
            "And(items=(Cmp(op='<', left=Var(name='x'), right=Lit(value=0)), "
            "Cmp(op='==', left=Var(name='y'), right=Lit(value=2))))",
            "Or(items=(BoolLit(value=True), Cmp(op='>=', left=Neg(operand=Var(name='y')), "
            "right=Var(name='x'))))",
        ]
        assert [repr(t) for t in sorted(MIXED, key=T._sort_key)] == [
            "And(items=(Cmp(op='<', left=Var(name='x'), right=Lit(value=0)), "
            "Cmp(op='==', left=Var(name='y'), right=Lit(value=2))))",
            "And(items=(Cmp(op='<', left=Var(name='x'), right=Lit(value=0)),))",
            "Bin(op='*', left=Lit(value=2), right=Var(name='y'))",
            "Bin(op='+', left=Var(name='x'), right=Lit(value=1))",
            "Bin(op='/', left=Var(name='x'), right=Bin(op='-', left=Var(name='y'), "
            "right=Lit(value=1)))",
            'BoolLit(value=1)', 'BoolLit(value=False)', 'BoolLit(value=True)',
            "Cmp(op='!=', left=Bin(op='%', left=Var(name='x'), right=Lit(value=2)), "
            "right=Lit(value=0))",
            "Cmp(op='<', left=Bin(op='-', left=Var(name='x'), right=Var(name='y')), "
            "right=Lit(value=0))",
            'Lit(value=-1)', 'Lit(value=1)', 'Lit(value=10)', 'Lit(value=True)',
            "Neg(operand=Var(name='x'))",
            "Not(operand=Cmp(op='==', left=Var(name='x'), right=Var(name='y')))",
            "Or(items=(BoolLit(value=True), Cmp(op='>=', left=Neg(operand=Var(name='y')), "
            "right=Var(name='x'))))",
            "Var(name='X')", "Var(name='x')", "Var(name='y')",
        ]

    @pytest.mark.parametrize("build", [deep_sum, deep_path], ids=["sum", "path"])
    def test_deep_terms_hash_compare_and_list_variables(self, build):
        t = build(DEPTH)
        assert build(DEPTH) is t and build(DEPTH) == t
        assert t != build(DEPTH - 1)
        assert hash(t) == hash(build(DEPTH))
        assert T.variables(t) == {f"v{i}" for i in range(7)}
        assert t in {t: 1}


def clear_term_caches():
    for value in list(vars(T).values()):
        if hasattr(value, "cache_clear"):
            value.cache_clear()


def any_terms():
    """Integer and boolean terms with `/`, `%`, Neg and Not, whose And and
    Or nodes have 0, 1 or 2 items."""
    ints = int_terms(division=True)
    cmps = st.tuples(st.sampled_from(T.CMP_OPS), ints, ints).map(lambda t: Cmp(*t))
    bools = st.recursive(
        st.one_of(st.booleans().map(BoolLit), cmps),
        lambda kids: st.one_of(
            kids.map(Not),
            st.lists(kids, max_size=2).map(lambda xs: And(tuple(xs))),
            st.lists(kids, max_size=2).map(lambda xs: Or(tuple(xs))),
        ),
        max_leaves=8,
    )
    return st.one_of(ints, bools)


def subterms(t):
    if isinstance(t, (Bin, Cmp)):
        return (t.left, t.right)
    if isinstance(t, (Neg, Not)):
        return (t.operand,)
    if isinstance(t, (And, Or)):
        return t.items
    return ()


# Plain recursive walks, each node's value kept in `memo` so that a chain
# walked up from its bottom level recurses one level per call.


def ref_divisors(t, memo):
    if t not in memo:
        out = [d for u in subterms(t) for d in ref_divisors(u, memo)]
        if isinstance(t, Bin) and t.op in ("/", "%"):
            out.append(t.right)
        memo[t] = out
    return memo[t]


def ref_variables(t, memo):
    if t not in memo:
        memo[t] = ({t.name} if isinstance(t, Var)
                   else set().union(*(ref_variables(u, memo) for u in subterms(t))))
    return memo[t]


def record_repr(t):
    """The record `repr` of `t`, at every level."""
    node_repr = T._Node.__repr__
    T._Node.__repr__ = Record.__repr__
    try:
        return repr(t)
    finally:
        T._Node.__repr__ = node_repr


def ref_has_division(t, memo):
    if t not in memo:
        memo[t] = (isinstance(t, Bin) and t.op in ("/", "%")
                   or any(ref_has_division(u, memo) for u in subterms(t)))
    return memo[t]


def ref_poly(t, memo):
    """The polynomial of an integer term, by the rules of `normalize_int`."""
    if t in memo:
        return memo[t]
    if isinstance(t, Lit):
        p = T._Poly.const(t.value)
    elif isinstance(t, Var):
        p = T._Poly.atom(t)
    elif isinstance(t, Neg):
        p = -ref_poly(t.operand, memo)
    elif t.op in ("+", "-", "*"):
        a, b = ref_poly(t.left, memo), ref_poly(t.right, memo)
        p = a + b if t.op == "+" else a - b if t.op == "-" else a * b
    else:
        left, right = ref_poly(t.left, memo).to_term(), ref_poly(t.right, memo).to_term()
        if isinstance(left, Lit) and isinstance(right, Lit) and right.value != 0:
            fold = T.trunc_div if t.op == "/" else T.trunc_mod
            p = T._Poly.const(fold(left.value, right.value))
        elif t.op == "/" and right == Lit(1):
            p = ref_poly(left, memo)
        else:
            p = T._Poly.atom(Bin(t.op, left, right))
    memo[t] = p
    return p


def int_chain(n):
    """The levels of an integer term n deep, bottom first: each adds a
    variable, a Neg or a literal to the one below, and every 1000th
    divides it."""
    levels = [Var("v0")]
    for i in range(1, n):
        t, v = levels[-1], Var(f"v{i % 7}")
        if i % 1000 == 0:
            t = Bin("/" if i % 2000 else "%", t, v)
        else:
            t = (Bin("+", t, v), Neg(t), Bin("-", t, Lit(i)))[i % 3]
        levels.append(t)
    return levels


def bool_chain(n):
    """The levels of a boolean term n deep, bottom first: Not, one-item Or
    and two-item And in turn, every 300th And over a dividing comparison."""
    levels = [T.TRUE]
    for i in range(1, n):
        t, v = levels[-1], Var(f"v{i % 7}")
        if i % 3 < 2:
            levels.append(Or((t,)) if i % 3 else Not(t))
        else:
            left = Bin("%", v, Lit(3)) if i // 3 % 300 == 0 else v
            levels.append(And((Cmp("<", left, Lit(i)), t)))
    return levels


class TestNodeFacts:
    """Each node's divisors, division flag, normal form and sort key are
    computed once, from its subterms'; they equal plain walks."""

    def test_divisors_come_in_post_order(self):
        a, b, c, d = (Var(n) for n in "abcd")
        t = Bin("/", Bin("/", a, Bin("%", b, c)), d)
        assert list(T.divisors(t)) == [c, Bin("%", b, c), d]

    @given(any_terms())
    @settings(max_examples=300)
    def test_facts_equal_plain_walks(self, t):
        clear_term_caches()
        assert list(T.divisors(t)) == ref_divisors(t, {})
        assert T.has_division(t) == ref_has_division(t, {})
        assert T.variables(t) == ref_variables(t, {})
        assert T.with_subterms(t, subterms(t)) is t
        if isinstance(t, (Lit, Var, Bin, Neg)):
            assert normalize_int(t) == ref_poly(t, {}).to_term()
        assert T._sort_key(t) == repr(t) == record_repr(t)

    @pytest.mark.parametrize("chain", [int_chain, bool_chain])
    def test_chains_built_at_once(self, chain):
        # the facts of the whole chain at once; the references walk it up
        # from the bottom level
        levels = chain(DEPTH)
        top, ints = levels[-1], chain is int_chain
        clear_term_caches()
        got = [list(T.divisors(top)), T.has_division(top)]
        if ints:
            got.append(normalize_int(top))
        divs, flags, polys = {}, {}, {}
        for t in levels:
            ref_divisors(t, divs)
            ref_has_division(t, flags)
            if ints:
                ref_poly(t, polys)
        want = [divs[top], flags[top]] + ([polys[top].to_term()] if ints else [])
        assert got == want
        assert len(divs[top]) > 3
        clear_term_caches()

    def test_sort_key_past_the_recursion_limit(self):
        top = int_chain(1200)[-1]
        key = T._sort_key(top)
        assert repr(top) == key
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(10_000)  # the record `repr` recurses per level
        try:
            assert key == record_repr(top)
        finally:
            sys.setrecursionlimit(limit)

    def test_repr_of_a_5000_deep_sum(self):
        x = Var("x")
        t = x
        for _ in range(4999):
            t = Bin("+", t, x)
        leaf = "Var(name='x')"
        assert repr(t) == "Bin(op='+', left=" * 4999 + leaf + f", right={leaf})" * 4999
