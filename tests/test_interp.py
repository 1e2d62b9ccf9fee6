import pytest
from hypothesis import given, settings, strategies as st

from mutkill import interp as I
from mutkill import lts as L
from mutkill import parser as P
from mutkill import terms as T

import conftest as C
from test_terms import bool_terms, int_terms


class TestRun:
    def test_golden_trace_positive_input(self, fig1):
        lts, _, _, _ = fig1
        tr = I.run_lts(lts, {"x": 2})
        assert tr.status == I.OK
        assert tr.output == (2,)
        # entry couple has the raw input and zeroed locals
        snap0, loc0 = tr.couples[0]
        assert loc0 == lts.entry
        assert dict(snap0) == {"x": 2, "n": 0, "y": 0}
        # final couple sits on the terminal location
        assert tr.couples[-1][1] in lts.terminals

    def test_golden_outcomes(self, fig1):
        lts, mutants, _, meta = fig1
        m1, m2 = C.golden_m1(mutants), C.golden_m2(mutants)
        assert I.run_concrete(meta, 0, {"x": 2}).output == (2,)
        assert I.run_concrete(meta, m1.id, {"x": 2}).output == (0,)
        assert I.run_concrete(meta, 0, {"x": -1}).output == (0,)
        assert I.run_concrete(meta, m2.id, {"x": -1}).output == (0,)

    def test_zero_step_budget_times_out(self, fig1):
        lts, _, _, _ = fig1
        tr = I.run_lts(lts, {"x": 2}, step_budget=0)
        assert tr.status == I.TIMEOUT
        assert tr.outcome() == (I.TIMEOUT,)

    def test_division_by_zero_is_an_error_trace(self):
        lts = C.load_lts("divmod")
        tr = I.run_lts(lts, {"x": 5, "y": 0})
        assert tr.status == I.ERROR
        ok = I.run_lts(lts, {"x": 5, "y": 2})
        assert ok.status == I.OK
        assert tr.outcome() != ok.outcome()

    def test_out_of_domain_input_rejected(self, fig1):
        lts, _, _, _ = fig1
        with pytest.raises(I.DomainViolation):
            I.run_lts(lts, {"x": 99})
        with pytest.raises(I.DomainViolation):
            I.run_lts(lts, {})
        with pytest.raises(I.DomainViolation):
            I.run_lts(lts, {"x": 0, "zz": 1})

    @pytest.mark.parametrize("name", C.ALL_PROGRAMS)
    def test_trace_respects_transition_relation(self, name):
        lts = C.load_lts(name)
        succ = lts.successors
        test = {n: lo for n, (lo, hi) in lts.inputs}
        tr = I.run_lts(lts, test, step_budget=2000)
        for (snap_a, loc_a), (snap_b, loc_b) in zip(tr.couples, tr.couples[1:]):
            env = dict(snap_a)
            matching = [t for t in succ[loc_a]
                        if t[2] == loc_b and T.eval_bool(t[1].guard, env)]
            assert matching, (loc_a, loc_b)
            _, gc, _ = matching[0]
            expect = dict(env)
            expect.update({v: T.eval_int(e, env) for v, e in gc.update})
            assert dict(snap_b) == expect

    def test_deterministic(self, fig1):
        lts, _, _, _ = fig1
        for x in range(-8, 8):
            assert I.run_lts(lts, {"x": x}) == I.run_lts(lts, {"x": x})


def _value(fn, *args):
    """fn's result, or EvalError when it raised that."""
    try:
        return fn(*args)
    except T.EvalError:
        return T.EvalError


# values near zero, so that divisors often are zero
small_envs = st.fixed_dictionaries({v: st.integers(-2, 2) for v in ("x", "y", "z")})


class TestCompiledCommands:
    @given(bool_terms(division=True), int_terms(division=True),
           int_terms(division=True), small_envs)
    @settings(max_examples=300)
    def test_agrees_with_eval(self, guard, update, emit, env):
        gc = L.GuardedCommand(guard, (("x", update), ("z", emit)), emit)
        compiled_guard, fire = I.compile_command(gc)
        assert _value(compiled_guard, dict(env)) == _value(T.eval_bool, guard, env)

        def evaluated():
            values = [T.eval_int(update, env), T.eval_int(emit, env)]
            return dict(env, x=values[0], z=values[1]), [values[1]]

        def compiled():
            e, out = dict(env), []
            fire(e, out)
            return e, out

        assert _value(compiled) == _value(evaluated)

    def test_short_circuit_skips_a_division_by_zero(self):
        div = T.Cmp("==", T.Bin("/", T.Var("x"), T.Var("y")), T.Lit(0))
        guard, _ = I.compile_command(L.GuardedCommand(
            T.And((T.Cmp("!=", T.Var("y"), T.Lit(0)), div))))
        assert guard({"x": 1, "y": 0}) is False
        guard, _ = I.compile_command(L.GuardedCommand(T.And((div, T.FALSE))))
        with pytest.raises(T.EvalError):
            guard({"x": 1, "y": 0})

    def test_equal_labels_share_their_functions(self):
        a = L.GuardedCommand(T.Cmp("<", T.Var("x"), T.Lit(0)))
        b = L.GuardedCommand(T.Cmp("<", T.Var("x"), T.Lit(0)))
        assert a is not b and I.compile_command(a) is I.compile_command(b)


def _deep_output(expr: str) -> L.Lts:
    return L.lower_text(f"input x: int in [0, 3];\nfn main() {{\n  output {expr};\n}}\n")


class TestDeepTerms:
    """Terms nested deeper than one generated function may nest."""

    def test_long_left_nested_sum(self):
        lts = _deep_output(" + ".join(["x"] * 300))
        assert I.run_lts(lts, {"x": 2}).output == (600,)

    def test_deep_right_nested_parentheses(self):
        # 80 levels: deeper than one generated function nests, and within
        # what the recursive-descent parser accepts
        lts = _deep_output("(x + " * 80 + "x" + ")" * 80)
        emit = lts.transitions[0][1].emit
        assert I.run_lts(lts, {"x": 3}).output == (243,) == (T.eval_int(emit, {"x": 3}),)


class TestKillMatrix:
    @pytest.fixture
    def golden_matrix(self, fig1):
        _, mutants, _, meta = fig1
        m1, m2 = C.golden_m1(mutants), C.golden_m2(mutants)
        tests = [{"x": 2}, {"x": -1}]
        return m1, m2, I.compute_kill_matrix(meta, [m1.id, m2.id], tests,
                                             step_budget=2000)

    def test_golden_cells(self, golden_matrix):
        m1, m2, km = golden_matrix
        assert km.killed(0, m1.id)
        assert not km.killed(0, m2.id)
        assert not km.killed(1, m1.id)
        assert not km.killed(1, m2.id)

    def test_surviving(self, golden_matrix):
        m1, m2, km = golden_matrix
        assert I.surviving_mutants(km) == {m2.id}
        assert km.killed_mutants() == {m1.id}

    def test_csv_shape(self, golden_matrix):
        m1, m2, km = golden_matrix
        lines = I.matrix_csv(km).strip().splitlines()
        assert lines[0] == f"test,{m1.id},{m2.id}"
        assert lines[1] == "x=2,K,S"
        assert lines[2] == "x=-1,S,S"

    def test_timeout_cells(self):
        lts, mutants, _, meta = C.build("sumloop")
        ids = [m.id for m in mutants]
        km = I.compute_kill_matrix(meta, ids, [{"n": 3}], step_budget=0)
        assert set(km.cells[0]) == {"T"}
        assert I.surviving_mutants(km) == set(ids)


def _matrix_from_rows(rows):
    """Synthetic matrix: rows[i][j] in 'KS'."""
    tests = tuple((("t", i),) for i in range(len(rows)))
    ids = tuple(range(1, len(rows[0]) + 1))
    return I.KillMatrix(tests=tests, mutant_ids=ids,
                        cells=tuple(tuple(r) for r in rows))


class TestGreedyMinimize:
    def test_prefers_high_gain(self):
        km = _matrix_from_rows(["KKS", "KSS", "SSK"])
        assert I.greedy_minimize(km) == [0, 2]

    def test_tie_broken_by_earlier_test(self):
        km = _matrix_from_rows(["KS", "SK", "KK"])
        # test 2 covers both at once
        assert I.greedy_minimize(km) == [2]
        km2 = _matrix_from_rows(["KS", "SK"])
        assert I.greedy_minimize(km2) == [0, 1]

    def test_empty_matrix(self):
        km = _matrix_from_rows(["SS"])
        assert I.greedy_minimize(km) == []

    def test_cover_preserved_on_golden(self, fig1):
        lts, mutants, tce, meta = fig1
        tests = [{"x": v} for v in (-8, -1, 0, 2, 7)]
        km = I.compute_kill_matrix(meta, list(tce.kept()), tests,
                                   step_budget=2000)
        chosen = I.greedy_minimize(km)
        full = km.killed_mutants()
        covered = set()
        for i in chosen:
            covered |= {m for m in km.mutant_ids if km.killed(i, m)}
        assert covered == full
        assert len(chosen) <= len(tests)


class TestSubsumption:
    def test_groups_by_identical_kill_sets(self):
        km = _matrix_from_rows(["KKS", "SSK"])
        # mutants 1 and 2 share {t0}; mutant 3 has {t1}; both minimal
        assert I.subsuming_groups(km) == [(1, 2), (3,)]

    def test_strict_superset_dropped(self):
        km = _matrix_from_rows(["KK", "SK"])
        # mutant 2 killed by both tests, mutant 1 only by the first:
        # {t0} is a strict subset of {t0,t1}, so mutant 2 is subsumed
        assert I.subsuming_groups(km) == [(1,)]

    def test_never_killed_ignored(self):
        km = _matrix_from_rows(["KS", "KS"])
        assert I.subsuming_groups(km) == [(1,)]

    def test_incomparable_sets_both_kept(self):
        km = _matrix_from_rows(["KS", "SK", "KK"])
        # {t0,t2} and {t1,t2} are incomparable
        assert I.subsuming_groups(km) == [(1,), (2,)]


class TestOracle:
    def test_all_inputs_covers_domain(self):
        lts = C.load_lts("divmod")
        pts = list(I.all_inputs(lts))
        sizes = [hi - lo + 1 for _, (lo, hi) in lts.inputs]
        assert len(pts) == sizes[0] * sizes[1]
        assert len({tuple(sorted(p.items())) for p in pts}) == len(pts)

    def test_golden_mutants_killable(self, fig1):
        _, mutants, _, meta = fig1
        m1, m2 = C.golden_m1(mutants), C.golden_m2(mutants)
        killable = I.killable_mutants(meta, [m1.id, m2.id], step_budget=2000)
        assert killable == {m1.id, m2.id}


def trace_dump(trace: I.Trace) -> str:
    lines = []
    for snap, loc in trace.couples:
        vars_txt = " ".join(f"{k}={v}" for k, v in snap)
        lines.append(f"({loc}, {vars_txt})")
    lines.append(f"status={trace.status} output={list(trace.output)} steps={trace.steps}")
    return "\n".join(lines) + "\n"


class TestFormatting:
    def test_format_valuation_sorted(self):
        assert I.format_valuation({"y": 2, "x": -1}) == "x=-1,y=2"

    def test_trace_dump_contains_couples_and_status(self, fig1):
        lts, _, _, _ = fig1
        txt = trace_dump(I.run_lts(lts, {"x": -1}))
        assert txt.startswith("(1, n=0 x=-1 y=0)")
        assert "status=terminal output=[0]" in txt
