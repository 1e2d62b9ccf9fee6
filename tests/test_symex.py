import hashlib
import random

import pytest

from mutkill import cli
from mutkill import interp as I
from mutkill import lts as L
from mutkill import mutation as M
from mutkill import parser as P
from mutkill import solver as S
from mutkill import symex as X
from mutkill import terms as T
from mutkill.terms import Cmp, Lit, Var

import conftest as C

H = (("x", (-8, 7)),)


def sat(c):
    return S.is_satisfiable(c, H)


def state(**kw):
    base = dict(path=T.TRUE, store=(("x", Var("x")),), out=(), loc=1, mut_id=0)
    base.update(kw)
    return X.SymbolicState(**base)


class TestConfig:
    def test_defaults(self):
        cfg = X.Config()
        assert (cfg.pl, cfg.cw, cfg.pp, cfg.pss, cfg.mpd, cfg.nsd, cfg.ntpm) \
            == ("GMD2MS", 0, 0.25, "RND", 2, False, 5)

    @pytest.mark.parametrize("kw", [
        {"pl": "XX"}, {"pss": "XX"}, {"pp": -0.1}, {"pp": 1.5},
        {"cw": -1}, {"mpd": -1}, {"ntpm": 0}, {"mode": "other"},
        {"budget_seconds": -1.0}, {"budget_seconds": float("nan")},
        {"max_states": -5}, {"max_depth": -1},
    ])
    def test_rejects_bad_values(self, kw):
        with pytest.raises(ValueError):
            X.Config(**kw)

    @pytest.mark.parametrize("kw", [
        {"budget_seconds": 0.0}, {"budget_seconds": float("inf")},
        {"max_states": 0}, {"max_states": None}, {"max_depth": 0},
    ])
    def test_accepts_limits_at_their_edges(self, kw):
        assert X.Config().replace(**kw) == X.Config(**kw)


class TestConstraintBuilders:
    def test_difference_true_on_distinct_locations(self):
        assert X.state_difference(state(loc=3), state(loc=4)) == T.TRUE

    def test_difference_over_store_and_output(self):
        a = state(store=(("x", Var("x")),), out=(Lit(1),))
        b = state(store=(("x", T.Bin("+", Var("x"), Lit(1))),), out=(Lit(1),))
        d = X.state_difference(a, b)
        assert T.holds(d, {"x": 0})  # x != x+1 always
        same = X.state_difference(a, a)
        assert T.normalize_bool(same) == T.FALSE

    def test_partial_kill_composition(self):
        o = state(path=Cmp(">", Var("x"), Lit(0)), out=(Var("x"),), trail=(0, 0, 0))
        m = state(path=Cmp(">", Var("x"), Lit(2)), out=(Lit(0),), trail=(0, 0, 0))
        c = X.build_partial_kill(o, m, X.Config())
        assert T.holds(c, {"x": 3})
        assert not T.holds(c, {"x": 1})  # mutant path fails

    def test_partial_kill_depth_mismatch(self):
        with pytest.raises(X.DepthMismatch):
            X.build_partial_kill(state(trail=(0, 0)), state(trail=(0, 0, 0)), X.Config())

    def test_nsd_drops_the_difference_clause(self):
        o = state(out=(Var("x"),), trail=(0,))
        m = state(out=(Var("x"),), trail=(0,))  # identical: no difference
        strict = X.build_partial_kill(o, m, X.Config())
        relaxed = X.build_partial_kill(o, m, X.Config(nsd=True))
        assert T.normalize_bool(strict) == T.FALSE
        assert T.normalize_bool(relaxed) == T.TRUE

    def test_kill_ignores_store(self):
        o = state(store=(("x", Lit(1)),), out=(Lit(5),), status="terminal")
        m = state(store=(("x", Lit(2)),), out=(Lit(5),), status="terminal")
        assert T.normalize_bool(X.build_kill(o, m)) == T.FALSE

    def test_kill_on_error_versus_normal_exit(self):
        o = state(out=(Lit(5),), status="terminal")
        m = state(out=(), status="error")
        assert T.normalize_bool(X.build_kill(o, m)) == T.TRUE


class TestCheckpoint:
    def test_prefork_state_is_never_a_checkpoint(self):
        assert not X.is_checkpoint(state(branch_count=0), X.Config(cw=0))

    def test_cw_zero_every_branch(self):
        for n in (1, 2, 3):
            assert X.is_checkpoint(state(branch_count=n), X.Config(cw=0))

    def test_cw_two_every_third_branch(self):
        cfg = X.Config(cw=2)
        hits = [n for n in range(1, 10)
                if X.is_checkpoint(state(branch_count=n), cfg)]
        assert hits == [3, 6, 9]


class TestSelectBranches:
    def cands(self, locs):
        return [state(loc=l, mut_id=1) for l in locs]

    def test_pp_half_keeps_two_of_four(self):
        kept, pruned = X.select_branches(
            self.cands([1, 2, 3, 4]), X.Config(pp=0.5), {}, random.Random(0))
        assert len(kept) == 2 and len(pruned) == 2

    def test_pp_zero_keeps_one(self):
        kept, pruned = X.select_branches(
            self.cands([1, 2, 3]), X.Config(pp=0.0), {}, random.Random(0))
        assert len(kept) == 1 and len(pruned) == 2

    def test_pp_one_keeps_all(self):
        kept, pruned = X.select_branches(
            self.cands([1, 2, 3]), X.Config(pp=1.0), {}, random.Random(0))
        assert len(kept) == 3 and pruned == []

    def test_mdo_keeps_minimal_distance(self):
        dist = {1: 5, 2: 1, 3: None, 4: 2}
        kept, pruned = X.select_branches(
            self.cands([1, 2, 3, 4]), X.Config(pp=0.5, pss="MDO"),
            dist, random.Random(0))
        assert [s.loc for s in kept] == [2, 4]
        assert [s.loc for s in pruned] == [1, 3]

    def test_rnd_deterministic_under_seed(self):
        a = X.select_branches(self.cands([1, 2, 3, 4]),
                              X.Config(pp=0.5), {}, random.Random(7))
        b = X.select_branches(self.cands([1, 2, 3, 4]),
                              X.Config(pp=0.5), {}, random.Random(7))
        assert a == b

    def test_partition_preserves_candidate_order(self):
        cands = self.cands([4, 1, 3, 2])
        kept, pruned = X.select_branches(cands, X.Config(pp=0.5), {},
                                         random.Random(3))
        merged = sorted(kept + pruned, key=cands.index)
        assert merged == cands


class TestPrecondition:
    SEEDS = [{"x": 3}, {"x": 5}]

    def test_gmd2ms_releases_at_depth(self):
        s = state(trail=(0,) * 5, compatible_seeds=(0, 1))
        assert X.apply_precondition(s, self.SEEDS, X.Config(), 5, set()) \
            == (X.RELEASE, ())

    def test_follow_while_a_seed_satisfies(self):
        s = state(path=Cmp(">", Var("x"), Lit(4)), trail=(0,), compatible_seeds=(0, 1))
        assert X.apply_precondition(s, self.SEEDS, X.Config(), 9, set()) \
            == (X.FOLLOW, (1,))

    def test_prune_when_no_seed_satisfies(self):
        s = state(path=Cmp("<", Var("x"), Lit(0)), trail=(0,), compatible_seeds=(0, 1))
        assert X.apply_precondition(s, self.SEEDS, X.Config(), 9, set()) \
            == (X.PRUNE, ())

    def test_only_compatible_seeds_are_tested(self):
        # the parent's path already excluded seed 0
        s = state(path=Cmp("<", Var("x"), Lit(4)), trail=(0,), compatible_seeds=(1,))
        assert X.apply_precondition(s, self.SEEDS, X.Config(), 9, set()) \
            == (X.PRUNE, ())

    def test_only_the_added_conjuncts_are_tested(self):
        # both seeds satisfied the parent's path; the step added x > 4
        s = state(path=T.conj([Cmp("<", Var("x"), Lit(0)), Cmp(">", Var("x"), Lit(4))]),
                  trail=(0,), compatible_seeds=(0, 1))
        assert X.apply_precondition(s, self.SEEDS, X.Config(), 9, set(),
                                    [Cmp(">", Var("x"), Lit(4))]) == (X.FOLLOW, (1,))

    def test_a_seed_is_followed_through_a_long_loop(self, tmp_path):
        # the seed n = 400 is followed through 400 iterations, a path of
        # more than 400 guards, each step testing only the guard it adds
        program = tmp_path / "deep.mimp"
        program.write_text("input n: int in [0, 400];\n"
                           "fn main() {\n  var i;\n  i = 0;\n"
                           "  while (i < n) {\n    i = i + 1;\n  }\n"
                           "  if (i > 5 && n > 5) {\n    output 1;\n  } else {\n    output 0;\n  }\n}\n")
        seeds = tmp_path / "seeds.txt"
        seeds.write_text("n=400\n")
        manifest = cli.parse_config(
            "MODE = semu\nPP = 1.0\nBUDGET_SECONDS = 600\nMAX_DEPTH = 2000\nOPERATORS = LCR\n",
            program=str(program), out_dir=str(tmp_path / "out"), seeds=str(seeds))
        cli.run_pipeline(manifest, stop="gen")
        stats = (tmp_path / "out" / "stats.txt").read_text()
        assert "states_created=807\n" in stats
        assert "pruned_seed=400\n" in stats

    def test_smd2ms_releases_at_mutation_point(self):
        s = state(loc=7, trail=(0,), compatible_seeds=(0, 1))
        cfg = X.Config(pl="SMD2MS")
        assert X.apply_precondition(s, self.SEEDS, cfg, None, {7}) == (X.RELEASE, ())
        assert X.apply_precondition(s, self.SEEDS, cfg, None, {9}) == (X.FOLLOW, (0, 1))


class TestPairing:
    def test_prefix_and_joint_satisfiability(self):
        m = state(mut_id=1, fork_trail=(0,), trail=(0, 1),
                  path=Cmp(">", Var("x"), Lit(0)))
        wrong_prefix = state(trail=(1, 0))
        unsat_with = state(trail=(0, 0),
                           path=Cmp("<", Var("x"), Lit(0)))
        good = state(trail=(0, 1), path=Cmp(">", Var("x"), Lit(2)))
        assert X.pair_states(m, [wrong_prefix, unsat_with, good], sat) is good

    def test_none_when_no_candidate(self):
        m = state(mut_id=1, fork_trail=(0,), trail=(0,))
        assert X.pair_states(m, [state(trail=(1,))], sat) is None

    def test_infection_check(self):
        # x / 1 leaves the state of `a = x * 1` as it is; x + 1 never does
        lts = L.lower_to_lts(P.parse_text(
            "input x: int in [-8,7];\nfn main() { var a = x * 1; output a; }"))
        mutants = M.generate_mutants(lts, ["AOR"])
        meta = M.build_meta_mutant(lts, mutants)
        ids = {m.mutated: m.id for m in mutants}
        same, diff = ids["x / 1"], ids["x + 1"]
        tests, stats = run(meta, [same], mode="infection-only")
        assert tests == [] and stats.pruned_noninfected == 1
        tests, stats = run(meta, [diff], mode="infection-only")
        assert stats.pruned_noninfected == 0
        # the witness of the infection query is the test
        assert [(t.mutant_id, t.site, t.inputs) for t in tests] == \
            [(diff, X.SITE_CHECKPOINT, (("x", -8),))]


class TestEnumerateTerminals:
    def test_golden_original_paths_through_negative_arm(self, fig1):
        _, _, _, meta = fig1
        paths = C.enumerate_terminals(meta, 0, 30, through=8)
        assert len(paths) == 2
        outs = [p.out for p in paths]
        assert (T.normalize_int(T.Bin("+", Var("x"), Lit(1))),) in outs
        assert (Var("x"),) in outs

    def test_golden_mutant_pairing(self, fig1):
        _, mutants, _, meta = fig1
        m2 = C.golden_m2(mutants)
        orig = C.enumerate_terminals(meta, 0, 30, through=8)
        mut = C.enumerate_terminals(meta, m2.id, 30, through=8)
        assert len(mut) == 2
        domains = meta.base.inputs
        verdicts = []
        for o in orig:
            for m in mut:
                r = S.is_satisfiable(X.build_kill(o, m), domains)
                verdicts.append(r)
        sat = [r for r in verdicts if r.is_sat]
        assert len(sat) == 1
        model = sat[0].model
        # the witness concretely kills the mutant
        a = I.run_concrete(meta, 0, model).outcome()
        b = I.run_concrete(meta, m2.id, model).outcome()
        assert a != b


def run(meta, targets, seeds=(), **cfg_kw):
    cfg = X.Config(**cfg_kw)
    return X.explore(meta, targets, list(seeds), cfg)


# the benchmark's corpus configuration, less what `gen` adds
CORPUS = "MAX_STATES = 1000\nMAX_DEPTH = 200\nRNG_SEED = 1\n"

# `y < x` is false once `y` is replaced by `x`, but it is not `false`
UNSAT_GUARD = ("input x: int in [0, 3];\n"
               "fn main() { var y = x; if (y < x) { output 1; } else { output 2; } }")

# the original errors at x = 0 and outputs 0 elsewhere; the mutants `x + 8`
# and `x - 8` and the deletion of the division output 0 everywhere, so only
# x = 0 kills them
ERRING_DIVISOR = "input x: int in [-2, 2];\nfn main() { var y = 1 / (x * 8); output y; }"

# the guard divides by `y` twice, the second time where `x / y > 0` holds
TWICE_DIVIDED = ("input x: int in [-3, 3];\ninput y: int in [-3, 3];\n"
                 "fn main() { if (x / y > 0 && x / y < 2) { output 1; } else { output 2; } }")


def gen(out_dir, program: str, config: str) -> tuple:
    """`mutkill gen` on a corpus program, or on the program file at the
    path `program`, at PP=1.0 in semu mode, in this process; its tests.txt
    and its stats.txt without the wall clock."""
    path = program if program.endswith(".mimp") else C.corpus_path(program)
    manifest = cli.parse_config("MODE = semu\nPP = 1.0\nBUDGET_SECONDS = 600\n" + config,
                                program=path, out_dir=str(out_dir))
    cli.run_pipeline(manifest, stop="gen")
    stats = (out_dir / "stats.txt").read_text()
    return ((out_dir / "tests.txt").read_text(),
            "".join(row for row in stats.splitlines(True) if not row.startswith("wall_clock=")))


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


class TestEngine:
    def test_zero_state_budget_generates_nothing(self, fig1):
        _, _, _, meta = fig1
        tests, stats = run(meta, sorted(meta.mutants), max_states=0)
        assert tests == []
        assert stats.solver_calls == 0

    def test_expired_time_budget_generates_nothing(self, fig1):
        _, _, _, meta = fig1
        tests, _ = run(meta, sorted(meta.mutants), budget_seconds=0.0)
        assert tests == []

    def test_kills_both_golden_mutants(self, fig1):
        lts, mutants, _, meta = fig1
        m1, m2 = C.golden_m1(mutants), C.golden_m2(mutants)
        tests, _ = run(meta, [m1.id, m2.id], seeds=[{"x": 2}, {"x": -1}],
                       pp=1.0)
        km = I.compute_kill_matrix(meta, [m1.id, m2.id],
                                   [t.valuation() for t in tests],
                                   step_budget=2000)
        assert km.killed_mutants() == {m1.id, m2.id}

    def test_mpd_gates_early_generation(self, fig1):
        _, mutants, _, meta = fig1
        m2 = C.golden_m2(mutants)
        eager, _ = run(meta, [m2.id], mpd=0)
        patient, _ = run(meta, [m2.id])
        assert any(t.site == X.SITE_CHECKPOINT for t in eager)
        assert all(t.site != X.SITE_CHECKPOINT for t in patient)

    def test_terminal_tests_replay_as_kills(self, fig1):
        _, _, tce, meta = fig1
        targets = list(tce.kept())[:20]
        tests, _ = run(meta, targets, max_states=4000)
        assert tests
        for t in tests:
            if t.site != X.SITE_TERMINAL:
                continue
            a = I.run_concrete(meta, 0, t.valuation(), step_budget=2000)
            b = I.run_concrete(meta, t.mutant_id, t.valuation(), step_budget=2000)
            assert a.outcome() != b.outcome(), t

    def test_terminal_tests_kill_past_a_dividing_branch(self):
        # the original errors at y = 1 in its guard x / (y - 1) > 0; a mutant
        # of that guard must not, or the engine's terminal kills are false
        lts = L.lower_to_lts(P.parse_text(C.DIVIDING_BRANCH))
        meta = M.build_meta_mutant(lts, M.generate_mutants(lts, M.SUPPORTED_OPERATORS))
        tests, _ = run(meta, sorted(meta.mutants), pp=1.0)
        terminal = [t for t in tests if t.site == X.SITE_TERMINAL]
        assert terminal
        for t in terminal:
            a = I.run_concrete(meta, 0, t.valuation())
            b = I.run_concrete(meta, t.mutant_id, t.valuation())
            assert a.outcome() != b.outcome(), t

    def test_ntpm_caps_per_mutant(self, fig1):
        _, _, tce, meta = fig1
        _, stats = run(meta, list(tce.kept())[:20], ntpm=1, mpd=0, pp=0.0,
                       max_states=4000)
        assert stats.tests_per_mutant
        assert all(n <= 1 for m, n in stats.tests_per_mutant.items() if m != 0)

    def test_deterministic(self, fig1):
        _, _, tce, meta = fig1
        targets = list(tce.kept())[:20]
        # a state cap, unlike the wall clock, cuts both runs at the same point
        a_tests, a_stats = run(meta, targets, rng_seed=11, max_states=4000)
        b_tests, b_stats = run(meta, targets, rng_seed=11, max_states=4000)
        assert a_tests == b_tests
        assert a_stats.states_created == b_stats.states_created
        assert a_stats.solver_calls == b_stats.solver_calls

    def test_seeded_prefixes_stay_inside_seed_paths(self, fig1):
        _, mutants, _, meta = fig1
        m1 = C.golden_m1(mutants)
        seeds = [{"x": 2}]
        _, stats = run(meta, [m1.id], seeds=seeds)
        # some branch off the seed path must have been pruned pre-release
        assert stats.pruned_seed > 0

    def test_solver_calls_counts_every_query(self, fig1, monkeypatch):
        _, _, tce, meta = fig1
        queries = []
        real = S.is_satisfiable

        def counted(c, h):
            queries.append(c)
            return real(c, h)

        monkeypatch.setattr(S, "is_satisfiable", counted)
        # MPD=0 with PP<1 pairs pruned checkpoint states with originals
        _, stats = run(meta, list(tce.kept())[:20], mpd=0, pp=0.25,
                       max_states=1000)
        assert queries and len(queries) == stats.solver_calls

    def test_constant_divisors_get_no_error_branch(self, monkeypatch, tmp_path):
        # countdown's AOR mutants divide by the literal 2, which is never
        # zero, so an error-path conjunction for it (6 360 under the
        # benchmark's corpus configuration) would be built and sent to the
        # solver, which would find each one unsat
        for module in (T, S):
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        built = []
        conj = T.conj

        def recording(items):
            items = list(items)
            built.append(items)
            return conj(items)

        monkeypatch.setattr(T, "conj", recording)
        _, stats = gen(tmp_path, "countdown", CORPUS)
        zero = [c.left for items in built for c in items[-1:]
                if isinstance(c, Cmp) and c.op == "==" and c.right == Lit(0)]
        assert zero
        assert not [d for d in zero if not T.has_division(d)
                    and isinstance(T.normalize_int(d), Lit)]
        assert "solver_calls=1343\n" in stats

    def test_explore_normalizes_no_boolean_term(self, monkeypatch, tmp_path):
        # feasibility is the solver's question, and the solver decides
        # countdown's small queries from their truth sets: exploring it
        # normalizes no guard, path or query (TCE, before it, does)
        explore, normalize = X.explore, T.normalize_bool
        normalized = []

        def counting(t):
            normalized.append(t)
            return normalize(t)

        def spied(*args):
            monkeypatch.setattr(T, "normalize_bool", counting)
            try:
                return explore(*args)
            finally:
                monkeypatch.setattr(T, "normalize_bool", normalize)

        monkeypatch.setattr(X, "explore", spied)
        _, stats = gen(tmp_path, "countdown", CORPUS)
        assert "states_created=1000\n" in stats
        assert normalized == []

    def test_a_guard_false_in_normal_form_is_pruned_by_the_solver(self, tmp_path):
        lts = L.lower_to_lts(P.parse_text(UNSAT_GUARD))
        [(s, _)] = X.step(X.initial_state(lts), lts.move(lts.entry))
        stepped = X.step(s, lts.move(s.loc))
        # both arms are stepped; the solver finds `x < x` unsat
        domains = lts.inputs
        assert [(T.normalize_bool(guard), S.is_satisfiable(nxt.path, domains).is_sat)
                for nxt, guard in stepped] == [(T.FALSE, False), (T.TRUE, True)]
        program = tmp_path / "unsat_guard.mimp"
        program.write_text(UNSAT_GUARD)
        tests, stats = gen(tmp_path / "out", str(program), "")
        assert digest(tests) == "9632a26a03680f943494651fcd016a069ed07db543f45a8d4f5fed4916dd4fa8"
        # 8 of the 9 states at the branch have an arm the solver finds
        # unsat: all but the mutant that deletes `var y = x`
        assert "states_created=41\npruned_infeasible=8\n" in stats
        assert "solver_calls=60\n" in stats

    def test_errors_of_the_original_take_part_in_the_infection_check(self):
        lts = L.lower_to_lts(P.parse_text(ERRING_DIVISOR))
        mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        meta = M.build_meta_mutant(lts, mutants)
        tests, _ = run(meta, sorted(meta.mutants), pp=1.0)
        by_mutant = {}
        for t in tests:
            by_mutant.setdefault(t.mutant_id, []).append(t.valuation())
        erring = [m.id for m in mutants
                  if m.operator in ("AOR:x * 8->x + 8", "AOR:x * 8->x - 8")
                  or (m.operator, m.original) == ("SDL", "1 / (x * 8)")]
        assert len(erring) == 3
        for m in erring:
            # the original errors where the mutant outputs: a test of its own
            assert by_mutant.get(m), m
            for model in by_mutant[m]:
                assert I.run_concrete(meta, 0, model).outcome() \
                    != I.run_concrete(meta, m, model).outcome()

    def test_a_divisor_split_off_under_a_weaker_reach_is_not_queried_again(self, monkeypatch):
        # once `y == 0` is split off, `y != 0` holds wherever evaluation
        # reaches the second `y`: its error query would be unsat
        queries = []
        sat = X._Engine.sat

        def spy(engine, c):
            queries.append(c)
            return sat(engine, c)

        monkeypatch.setattr(X._Engine, "sat", spy)
        lts = L.lower_to_lts(P.parse_text(TWICE_DIVIDED))
        mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        meta = M.build_meta_mutant(lts, mutants)
        run(meta, M.tce_filter(lts, mutants).kept(), pp=1.0)
        zero, nonzero = Cmp("==", Var("y"), Lit(0)), Cmp("!=", Var("y"), Lit(0))
        errors = [c for c in queries if isinstance(c, T.And) and c.items[-1] is zero]
        assert errors
        assert [c for c in errors if nonzero in c.items] == []

    def test_stats_text_contains_counters(self, fig1):
        _, mutants, _, meta = fig1
        _, stats = run(meta, [C.golden_m1(mutants).id])
        txt = stats.as_text()
        for key in ("states_created=", "solver_calls=", "tests_per_mutant=",
                    "wall_clock="):
            assert key in txt


class TestModes:
    def test_vanilla_one_test_per_terminal_path(self):
        lts, _, _, meta = C.build("abs")
        tests, _ = run(meta, [], mode="vanilla")
        assert len(tests) == 2  # the two arms of the single branch
        assert all(t.mutant_id == 0 and t.site == X.SITE_TERMINAL
                   for t in tests)

    def test_vanilla_covers_all_feasible_paths(self):
        lts, _, _, meta = C.build("classify")
        tests, _ = run(meta, [], mode="vanilla")
        originals = C.enumerate_terminals(meta, 0, 50)
        domains = lts.inputs
        feasible = sum(1 for p in originals
                       if S.is_satisfiable(p.path, domains).is_sat)
        assert len(tests) == feasible

    def test_infection_only_stops_at_the_mutation_point(self):
        lts, mutants, _, meta = C.build("mask")
        rhs = [m.id for m in mutants if m.operator.startswith("RHS")]
        tests, _ = run(meta, rhs, seeds=[{"x": 0}], mode="infection-only",
                       pp=1.0)
        assert tests
        assert all(t.site == X.SITE_CHECKPOINT for t in tests)

    def test_semu_outkills_infection_only_on_masked_propagation(self):
        lts, mutants, _, meta = C.build("mask")
        rhs = [m.id for m in mutants if m.operator.startswith("RHS")]
        kw = dict(seeds=[{"x": 0}], pp=1.0)
        weak, _ = run(meta, rhs, mode="infection-only", **kw)
        strong, _ = run(meta, rhs, mode="semu", **kw)

        def kills(tests):
            km = I.compute_kill_matrix(meta, rhs,
                                       [t.valuation() for t in tests],
                                       step_budget=2000)
            return km.killed_mutants()

        assert kills(weak) == set()
        assert kills(strong) == set(rhs)


class TestCheckpointPlacement:
    def test_cw_two_checkpoints_every_third_branching_location(self):
        from mutkill import lts as L
        from mutkill import mutation as M
        from mutkill import parser as P
        src = ["input x: int in [-8,7];", "fn main() {", "var a = x;"]
        for i in range(6):
            src.append(f"if (x > {i}) {{ a = a + 1; }} else {{ a = a - 1; }}")
        src += ["output a;", "}"]
        lts = L.lower_to_lts(P.parse_text("\n".join(src)))
        ms = [m for m in M.generate_mutants(lts, ["RHS"]) if m.loc == 1]
        meta = M.build_meta_mutant(lts, ms)
        _, stats = run(meta, [ms[0].id], cw=2, pp=1.0)
        locs = {loc for _, loc, _ in stats.checkpoint_events}
        branch_locs = [l for l in lts.locations if lts.info(l).kind == "branch"]
        assert locs == {branch_locs[2], branch_locs[5]}


class TestDeepTerms:
    """countdown's AOR mutant `x = x / 2` grows its store term by one
    division per loop iteration, so MAX_DEPTH bounds how deep it gets."""

    def test_deep_division_chains_explore_at_the_default_recursion_limit(self, tmp_path):
        _, stats = gen(tmp_path, "countdown", "MAX_DEPTH = 1600\nOPERATORS = AOR\n")
        assert "states_created=4970\n" in stats

    def test_outputs_of_a_deep_run(self, tmp_path):
        tests, stats = gen(tmp_path, "countdown", "MAX_DEPTH = 1100\nOPERATORS = AOR\n")
        assert "states_created=3470\n" in stats
        assert digest(tests) == "52f0d13a10581a6ac00d1e252a41dc56f45aa5550a8ba243298fa996e0ad8c34"
        assert digest(stats) == "1c69548ec9c20cc9f80d1a5a783ac007b6135ad49a90b6ef27426cc22ee7f26e"
