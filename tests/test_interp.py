import itertools
import os

import pytest
from hypothesis import given, settings, strategies as st

from mutkill import interp as I
from mutkill import lts as L
from mutkill import mutation as M
from mutkill import parser as P
from mutkill import terms as T

import conftest as C
from test_terms import bool_terms, int_terms


def couples(trace: I.Trace):
    """Every recorded (valuation, location) couple, the valuation as sorted
    (name, value) pairs."""
    return tuple((tuple(zip(trace.names, values)), loc) for values, loc in trace.states)


def reference(lts: L.Lts, test, step_budget=I.DEFAULT_STEP_BUDGET):
    """(status, output, steps, states) of a run that evaluates each
    transition's terms with `eval_bool`/`eval_int`, one step at a time."""
    names = tuple(sorted(lts.variables))
    env = dict.fromkeys(names, 0)
    env.update(test)
    loc = lts.entry
    states = [(tuple(env[n] for n in names), loc)]
    output = []
    steps = 0
    while loc not in lts.terminals:
        if steps >= step_budget:
            return I.TIMEOUT, tuple(output), steps, tuple(states)
        try:
            for _, gc, dst in lts.successors[loc]:
                if T.eval_bool(gc.guard, env):
                    break
            else:
                raise AssertionError(f"no enabled transition at location {loc}")
            values = [T.eval_int(term, env) for _, term in gc.update]
            if gc.emit is not None:
                output.append(T.eval_int(gc.emit, env))
        except T.EvalError:
            return I.ERROR, tuple(output), steps + 1, tuple(states)
        env.update(zip((name for name, _ in gc.update), values))
        loc = dst
        steps += 1
        states.append((tuple(env[n] for n in names), loc))
    return I.OK, tuple(output), steps, tuple(states)


def observed(trace: I.Trace):
    return trace.status, trace.output, trace.steps, trace.states


def replayed(meta, mut_id: int, test, step_budget=I.DEFAULT_STEP_BUDGET):
    """observed() of `run_concrete`'s run, with the states that the same
    kernel records."""
    got = I.run_concrete(meta, mut_id, test, step_budget)
    traced = I.run_lts(meta.program(mut_id), test, step_budget, record_states=True)
    assert traced.replace(states=None) == got
    return observed(traced)


class TestRun:
    def test_golden_trace_positive_input(self, fig1):
        lts, _, _, _ = fig1
        tr = I.run_lts(lts, {"x": 2}, record_states=True)
        assert tr.status == I.OK
        assert tr.output == (2,)
        # entry couple has the raw input and zeroed locals
        snap0, loc0 = couples(tr)[0]
        assert loc0 == lts.entry
        assert dict(snap0) == {"x": 2, "n": 0, "y": 0}
        # final couple sits on the terminal location
        assert couples(tr)[-1][1] in lts.terminals

    def test_states_are_recorded_only_on_request(self, fig1):
        lts, _, _, meta = fig1
        assert I.run_lts(lts, {"x": 2}).states is None
        assert I.run_concrete(meta, 0, {"x": 2}).states is None
        recorded = I.run_lts(lts, {"x": 2}, record_states=True)
        assert len(recorded.states) == recorded.steps + 1
        assert recorded.replace(states=None) == I.run_lts(lts, {"x": 2})

    def test_golden_outcomes(self, fig1):
        lts, mutants, _, meta = fig1
        m1, m2 = C.golden_m1(mutants), C.golden_m2(mutants)
        assert I.run_concrete(meta, 0, {"x": 2}).output == (2,)
        assert I.run_concrete(meta, m1.id, {"x": 2}).output == (0,)
        assert I.run_concrete(meta, 0, {"x": -1}).output == (0,)
        assert I.run_concrete(meta, m2.id, {"x": -1}).output == (0,)

    def test_unknown_mutant_rejected(self, fig1):
        _, mutants, _, meta = fig1
        with pytest.raises(I.DomainViolation):
            I.run_concrete(meta, len(mutants) + 1, {"x": 2})
        with pytest.raises(I.DomainViolation):
            I.compute_kill_matrix(meta, [1, len(mutants) + 1], [{"x": 2}])

    def test_zero_step_budget_times_out(self, fig1):
        lts, _, _, _ = fig1
        tr = I.run_lts(lts, {"x": 2}, step_budget=0, record_states=True)
        assert tr.status == I.TIMEOUT
        assert tr.outcome() == (I.TIMEOUT,)
        assert tr.steps == 0 and tr.states == (((0, 2, 0), lts.entry),)

    def test_terminal_reached_exactly_at_the_budget(self, fig1):
        lts, _, _, _ = fig1
        steps = I.run_lts(lts, {"x": 2}).steps
        assert I.run_lts(lts, {"x": 2}, step_budget=steps).status == I.OK
        short = I.run_lts(lts, {"x": 2}, step_budget=steps - 1)
        assert (short.status, short.steps) == (I.TIMEOUT, steps - 1)

    def test_empty_program_is_terminal_at_entry(self):
        lts = L.lower_text("input x: int in [0, 3];\nfn main() {\n}\n")
        assert lts.entry in lts.terminals
        tr = I.run_lts(lts, {"x": 1}, step_budget=0)
        assert (tr.status, tr.output, tr.steps) == (I.OK, (), 0)

    def test_division_by_zero_is_an_error_trace(self):
        lts = C.load_lts("divmod")
        tr = I.run_lts(lts, {"x": 5, "y": 0})
        assert tr.status == I.ERROR
        ok = I.run_lts(lts, {"x": 5, "y": 2})
        assert ok.status == I.OK
        assert tr.outcome() != ok.outcome()

    def test_error_on_the_last_budgeted_step(self):
        lts = C.load_lts("divmod")
        test = {"x": 5, "y": 0}
        steps = I.run_lts(lts, test).steps
        for budget in (steps, steps + 1):
            tr = I.run_lts(lts, test, step_budget=budget, record_states=True)
            assert observed(tr) == reference(lts, test, budget)
            assert (tr.status, tr.steps) == (I.ERROR, steps)
        assert I.run_lts(lts, test, step_budget=steps - 1).status == I.TIMEOUT

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
        tr = I.run_lts(lts, test, step_budget=2000, record_states=True)
        for (snap_a, loc_a), (snap_b, loc_b) in zip(couples(tr), couples(tr)[1:]):
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


def _outcome(fn, *args):
    """fn's result, or "stuck" when it raised AssertionError."""
    try:
        return fn(*args)
    except AssertionError:
        return "stuck"


def _lts(transitions, terminal, inputs=(("x", (-2, 2)), ("y", (-2, 2)))):
    """A hand-built program over x, y and z from location 1."""
    return L.Lts(locations=tuple(range(1, terminal + 1)), entry=1,
                 terminals=frozenset({terminal}), variables=("x", "y", "z"),
                 inputs=inputs, transitions=tuple(transitions), loc_info=())


guards, ints = bool_terms(division=True), int_terms(division=True)
emits = st.none() | ints
targets = st.lists(st.sampled_from(("x", "y", "z")), unique=True, max_size=2)


@st.composite
def small_programs(draw):
    """Up to four non-terminal locations of one or two guarded commands
    each, in any order and to any location; guards need not be exclusive
    or complete."""
    terminal = draw(st.integers(2, 5))
    transitions = []
    for loc in range(1, terminal):
        for _ in range(draw(st.integers(1, 2))):
            gc = L.GuardedCommand(draw(guards),
                                  tuple((v, draw(ints)) for v in draw(targets)),
                                  draw(emits))
            transitions.append((loc, gc, draw(st.integers(1, terminal))))
    return _lts(transitions, terminal)


small_tests = st.fixed_dictionaries({"x": st.integers(-2, 2), "y": st.integers(-2, 2)})


class TestKernel:
    """`run_lts` against the reference stepper."""

    @given(small_programs(), small_tests, st.integers(0, 12))
    @settings(max_examples=200, deadline=None)
    def test_agrees_with_the_reference(self, lts, test, budget):
        got = _outcome(lambda: observed(I.run_lts(lts, test, budget, record_states=True)))
        assert got == _outcome(reference, lts, test, budget)

    def test_no_enabled_transition_raises(self):
        lts = _lts([(1, L.GuardedCommand(T.Cmp(">", T.Var("x"), T.Lit(0))), 2)], 2)
        assert I.run_lts(lts, {"x": 1, "y": 0}).status == I.OK
        with pytest.raises(AssertionError, match="no enabled transition at location 1"):
            I.run_lts(lts, {"x": 0, "y": 0})

    def test_short_circuit_skips_a_division_by_zero(self):
        div = T.Cmp("==", T.Bin("/", T.Var("x"), T.Var("y")), T.Lit(0))
        guarded = _lts([(1, L.GuardedCommand(T.And((T.Cmp("!=", T.Var("y"), T.Lit(0)), div))), 2),
                        (1, L.GuardedCommand(T.TRUE, (), T.Lit(7)), 2)], 2)
        assert I.run_lts(guarded, {"x": 1, "y": 0}).output == (7,)
        unguarded = _lts([(1, L.GuardedCommand(T.And((div, T.FALSE))), 2),
                          (1, L.GuardedCommand(T.TRUE, (), T.Lit(7)), 2)], 2)
        tr = I.run_lts(unguarded, {"x": 1, "y": 0})
        assert (tr.status, tr.steps) == (I.ERROR, 1)

    def test_update_then_emit_then_assign(self):
        swap = L.GuardedCommand(T.TRUE, (("x", T.Var("y")), ("y", T.Var("x"))),
                                T.Bin("-", T.Var("x"), T.Var("y")))
        tr = I.run_lts(_lts([(1, swap, 2)], 2), {"x": 2, "y": -1}, record_states=True)
        assert tr.output == (3,)
        assert tr.states[-1] == ((-1, 2, 0), 2)


def _deep_output(expr: str) -> L.Lts:
    return L.lower_text(f"input x: int in [0, 3];\nfn main() {{\n  output {expr};\n}}\n")


class TestDeepTerms:
    """Terms nested deeper than one generated function may nest."""

    def test_long_left_nested_sum(self):
        lts = _deep_output(" + ".join(["x"] * 300))
        tr = I.run_lts(lts, {"x": 2}, record_states=True)
        assert tr.output == (600,)
        assert observed(tr) == reference(lts, {"x": 2})

    def test_deep_right_nested_parentheses(self):
        # 80 levels: deeper than one generated function nests, and within
        # what the recursive-descent parser accepts
        lts = _deep_output("(x + " * 80 + "x" + ")" * 80)
        emit = lts.transitions[0][1].emit
        tr = I.run_lts(lts, {"x": 3}, record_states=True)
        assert tr.output == (243,) == (T.eval_int(emit, {"x": 3}),)
        assert observed(tr) == reference(lts, {"x": 3})

    def test_every_mutant_of_one_deep_statement(self):
        # hundreds of mutants at one location, told apart by a tree of
        # `mid < k` tests nine deep
        lts = _deep_output(" + ".join(["x"] * 100))
        mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        assert len(mutants) > 256
        meta = M.build_meta_mutant(lts, mutants)
        km = I.compute_kill_matrix(meta, [m.id for m in mutants], [{"x": 2}])
        for m in mutants:
            got = replayed(meta, m.id, {"x": 2})
            assert got == reference(M.apply_mutant(lts, m), {"x": 2}), m
            assert km.killed(0, m.id) == (got[:2] != (I.OK, (200,)))


def _grid(lts: L.Lts):
    """Each input's bounds and the values -1 to 2, clamped to its domain."""
    axes = [sorted({min(max(v, lo), hi) for v in (lo, -1, 0, 1, 2, hi)})
            for _, (lo, hi) in lts.inputs]
    return [dict(zip([n for n, _ in lts.inputs], point))
            for point in itertools.product(*axes)]


def _schema_sources():
    for path in C.every_program():
        with open(path, encoding="utf-8") as f:
            folder = os.path.basename(os.path.dirname(path))
            yield pytest.param(f.read(), id=f"{folder}/{os.path.basename(path)}")
    yield pytest.param(C.DIVIDING_BRANCH, id="dividing-branch")


class TestSchema:
    """One compiled schema per meta-mutant runs each mutant as its
    standalone program would run."""

    @pytest.mark.parametrize("text", list(_schema_sources()))
    def test_every_mutant_matches_its_standalone_program(self, text):
        lts = L.lower_text(text)
        mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        meta = M.build_meta_mutant(lts, mutants)
        tests, budget = _grid(lts), 60
        # one schema over every mutant, compiled by the matrix
        km = I.compute_kill_matrix(meta, [m.id for m in mutants], tests, budget)
        for i, test in enumerate(tests):
            base = reference(lts, test, budget)
            assert replayed(meta, 0, test, budget) == base
            for j, m in enumerate(mutants):
                want = reference(M.apply_mutant(lts, m), test, budget)
                assert replayed(meta, m.id, test, budget) == want, (m, test)
                assert km.cells[i][j] == I.outcome_cell(
                    I.Trace((), None, base[1], base[0], base[2]),
                    I.Trace((), None, want[1], want[0], want[2]))

    def test_six_thousand_statements(self):
        # deeper than any `elif` chain CPython compiles
        text = ("input x: int in [0, 3];\nfn main() {\n  var y;\n"
                + "  y = y + x;\n" * 6000 + "  output y;\n}\n")
        lts = L.lower_text(text)
        assert I.run_lts(lts, {"x": 2}).output == (12000,)
        mutants = M.generate_mutants(lts, ["AOR", "SDL"])
        picked = [mutants[0], mutants[len(mutants) // 2], mutants[-1]]
        meta = M.build_meta_mutant(lts, picked)
        km = I.compute_kill_matrix(meta, [m.id for m in picked], [{"x": 2}])
        assert km.cells == (("K", "K", "K"),)
        assert [I.run_concrete(meta, m.id, {"x": 2}).output for m in picked] == \
            [(11996,), (11996,), ()]

    def test_straight_line_location_takes_two_lines(self, monkeypatch):
        # a location whose only transition is guarded by `true` and makes
        # one update is `v = ...` and `loc = ...`; the balanced tree that
        # selects it adds one `if loc < k:` and one `else:` per inner node
        text = ("input x: int in [0, 3];\nfn main() {\n  var y;\n"
                + "  y = y + x;\n" * 6000 + "  output y;\n}\n")
        lts = L.lower_text(text)
        mutants = M.generate_mutants(lts, ["AOR"])
        picked = [mutants[0], mutants[-1]]
        meta = M.build_meta_mutant(lts, picked)
        sources = []
        functions = T.Source.functions

        def spy(self, filename):
            if filename == "<mutkill replay>":
                sources.append("".join(self.defs))
            return functions(self, filename)

        monkeypatch.setattr(T.Source, "functions", spy)
        km = I.compute_kill_matrix(meta, [m.id for m in picked], [{"x": 2}])
        assert km.cells == (("K", "K"),)
        [source] = sources
        lines = source.count("\n")
        tree = 2 * source.count("if loc < ")
        assert tree == 2 * (len(lts.locations) - 1)
        assert lines - tree <= 2 * len(lts.locations) + 40


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

    # divmod's original errors at y = 0; x=1,y=2 appears with its keys in
    # another order, and the first row, a seed say, again as a test
    REPEATING = [{"x": 0, "y": 0}, {"x": 7, "y": -4}, {"x": 1, "y": 2},
                 {"y": 2, "x": 1}, {"x": 0, "y": 0}, {"x": -8, "y": 3},
                 {"x": 1, "y": 2}, {"x": 7, "y": -4}]

    def test_repeated_tests_match_row_by_row_replay(self):
        _, _, tce, meta = C.build("divmod")
        ids = list(tce.kept())
        km = I.compute_kill_matrix(meta, ids, self.REPEATING)
        expected = []
        for test in self.REPEATING:
            base = I.run_concrete(meta, 0, test)
            expected.append(tuple(I.outcome_cell(base, I.run_concrete(meta, m, test))
                                  for m in ids))
        assert km.cells == tuple(expected)
        assert len(set(km.cells)) > 1 and set().union(*km.cells) == {"K", "S"}
        assert km.tests == tuple(tuple(sorted(t.items())) for t in self.REPEATING)
        lines = I.matrix_csv(km).splitlines()
        assert len(lines) == len(self.REPEATING) + 1
        assert lines[3] == lines[4] == lines[7] and lines[1] == lines[5]

    @pytest.mark.parametrize("bad", [{"x": 0, "y": 9}, {"x": 0}, {"x": 0, "y": 0, "z": 1}])
    def test_repeated_out_of_domain_test_rejected(self, bad):
        _, _, tce, meta = C.build("divmod")
        for suite in ([bad, bad], [{"x": 1, "y": 1}, bad, {"x": 1, "y": 1}, bad]):
            with pytest.raises(I.DomainViolation):
                I.compute_kill_matrix(meta, list(tce.kept()), suite)

    def test_unknown_mutant_rejected_with_repeated_tests(self):
        _, _, tce, meta = C.build("divmod")
        with pytest.raises(I.DomainViolation, match="unknown mutant id 999"):
            I.compute_kill_matrix(meta, [*tce.kept(), 999], self.REPEATING)

    def test_timeout_cells(self):
        lts, mutants, _, meta = C.build("sumloop")
        ids = [m.id for m in mutants]
        km = I.compute_kill_matrix(meta, ids, [{"n": 3}], step_budget=0)
        assert set(km.cells[0]) == {"T"}
        assert I.surviving_mutants(km) == set(ids)


class TestTracerCounters:
    def test_every_replay_goes_through_run_lts(self, monkeypatch):
        # the benchmark's tracer counts runs, steps and timeouts by wrapping
        # the module attribute `run_lts`, as this test does
        lts, mutants, tce, _ = C.build("sumloop")
        meta = M.build_meta_mutant(lts, mutants)
        ids, tests, budget = list(tce.kept()), [{"n": n} for n in (0, 3, 15)], 40
        traces = []
        unwrapped = I.run_lts

        def counting(*args, **kwargs):
            trace = unwrapped(*args, **kwargs)
            traces.append(trace)
            return trace

        monkeypatch.setattr(I, "run_lts", counting)
        I.compute_kill_matrix(meta, ids, tests, budget)
        assert len(traces) == len(tests) * (len(ids) + 1)
        expected = [reference(meta.program(k), t, budget) for t in tests for k in (0, *ids)]
        assert sum(t.steps for t in traces) == sum(r[2] for r in expected)
        timeouts = sum(t.status == I.TIMEOUT for t in traces)
        assert timeouts == sum(r[0] == I.TIMEOUT for r in expected) > 0

    def test_each_distinct_test_runs_once(self, monkeypatch):
        lts, mutants, tce, _ = C.build("sumloop")
        meta = M.build_meta_mutant(lts, mutants)
        ids, distinct, budget = list(tce.kept()), [{"n": n} for n in (0, 3, 15)], 40
        calls = []
        unwrapped = I.run_lts

        def counting(*args, **kwargs):
            calls.append(args[1])
            return unwrapped(*args, **kwargs)

        monkeypatch.setattr(I, "run_lts", counting)
        km = I.compute_kill_matrix(meta, ids, distinct + distinct[::-1], budget)
        assert len(calls) == len(distinct) * (len(ids) + 1)
        assert calls == [t for t in distinct for _ in range(len(ids) + 1)]
        assert km.cells == km.cells[:3] + km.cells[2::-1]


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

    def test_columns_index_each_mutant_once(self):
        km = I.KillMatrix(tests=((("t", 0),),), mutant_ids=(5, 3, 5), cells=(("K", "S", "S"),))
        assert km.columns == {5: 0, 3: 1}
        assert km.killed(0, 5) and not km.killed(0, 3)
        assert I.greedy_minimize(km) == [0]

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
    for snap, loc in couples(trace):
        vars_txt = " ".join(f"{k}={v}" for k, v in snap)
        lines.append(f"({loc}, {vars_txt})")
    lines.append(f"status={trace.status} output={list(trace.output)} steps={trace.steps}")
    return "\n".join(lines) + "\n"


class TestFormatting:
    def test_format_valuation_sorted(self):
        assert I.format_valuation({"y": 2, "x": -1}) == "x=-1,y=2"

    def test_trace_dump_contains_couples_and_status(self, fig1):
        lts, _, _, _ = fig1
        txt = trace_dump(I.run_lts(lts, {"x": -1}, record_states=True))
        assert txt.startswith("(1, n=0 x=-1 y=0)")
        assert "status=terminal output=[0]" in txt
