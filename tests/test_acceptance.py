"""End-to-end acceptance gate.

Each test exercises one numbered acceptance criterion and prints a single
`criterion N: PASS|FAIL` line before asserting.
"""

import itertools
import random
import time

from mutkill import interp as I
from mutkill import lts as L
from mutkill import mutation as M
from mutkill import parser as P
from mutkill import solver as S
from mutkill import symex as X
from mutkill import terms as T
from mutkill.terms import Lit, Var

import conftest as C


def _verdict(n: int, ok: bool, detail: str = ""):
    print(f"criterion {n}: {'PASS' if ok else 'FAIL'}" +
          (f" ({detail})" if detail and not ok else ""))
    assert ok, f"criterion {n} failed: {detail}"


def _frontier_at(meta, mut_id, depth):
    """Symbolic states after exactly `depth` moves of the mutant's program
    (no pruning)."""
    prog = meta.program(mut_id)
    states = [X.initial_state(prog, mut_id)]
    for _ in range(depth):
        states = [kid for s in states if s.loc not in prog.terminals
                  for kid, _ in X.step(s, prog.move(s.loc))]
    return states


def test_criterion_1_golden_four_case_analysis(fig1):
    t0 = time.monotonic()
    lts, mutants, _, meta = fig1
    failures = []
    if len(lts.locations) != 12:
        failures.append(f"{len(lts.locations)} locations")
    m1, m2 = C.golden_m1(mutants), C.golden_m2(mutants)
    # the four golden trace outcomes
    golden = [
        (0, {"x": 2}, (2,)),
        (m1.id, {"x": 2}, (0,)),
        (0, {"x": -1}, (0,)),
        (m2.id, {"x": -1}, (0,)),
    ]
    for mid, test, want in golden:
        got = I.run_concrete(meta, mid, test).output
        if got != want:
            failures.append(f"mutant {mid} on {test}: {got} != {want}")
    # exhaustive four-case kill analysis for the off-by-one mutant
    domains = lts.inputs
    orig = C.enumerate_terminals(meta, 0, 30, through=8)
    mut = C.enumerate_terminals(meta, m2.id, 30, through=8)
    if len(orig) != 2 or len(mut) != 2:
        failures.append(f"path counts {len(orig)},{len(mut)}")
    out_neg = (T.normalize_int(T.Bin("+", Var("x"), Lit(1))),)
    sat_models = []
    for o, m in itertools.product(orig, mut):
        res = S.is_satisfiable(X.build_kill(o, m), domains)
        expect_sat = (o.out == out_neg and
                      m.out == (T.normalize_int(T.Bin("+", Var("x"), Lit(2))),))
        if res.is_sat != expect_sat:
            failures.append(f"pair ({o.out},{m.out}) -> {res.status}")
        if res.is_sat:
            sat_models.append(res.model)
    if len(sat_models) != 1:
        failures.append(f"{len(sat_models)} SAT cases")
    else:
        model = sat_models[0]
        if not model.get("x", 0) <= -2:
            failures.append(f"model {model} outside the x<=-2 class")
        if I.run_concrete(meta, 0, model).outcome() == \
                I.run_concrete(meta, m2.id, model).outcome():
            failures.append(f"model {model} does not kill")
    elapsed = time.monotonic() - t0
    if elapsed >= 5.0:
        failures.append(f"{elapsed:.1f}s")
    _verdict(1, not failures, "; ".join(failures))


def test_criterion_2_partial_kill_depth_behavior(fig1):
    t0 = time.monotonic()
    lts, mutants, _, meta = fig1
    m2 = C.golden_m2(mutants)
    domains = lts.inputs
    failures = []
    # mutation-point depth: phiP and phiM and (n differs)
    orig_d2 = [s for s in _frontier_at(meta, 0, 2) if s.loc == 9]
    mut_d2 = [s for s in _frontier_at(meta, m2.id, 2) if s.loc == 9]
    if len(orig_d2) != 1 or len(mut_d2) != 1:
        failures.append("mutation-point states not unique")
    else:
        infect = X.build_partial_kill(orig_d2[0], mut_d2[0], X.Config())
        if not S.is_satisfiable(infect, domains).is_sat:
            failures.append("infection constraint UNSAT")
        if not T.holds(infect, {"x": -1}):
            failures.append("x=-1 not a model of the infection constraint")
        if I.run_concrete(meta, 0, {"x": -1}).outcome() != \
                I.run_concrete(meta, m2.id, {"x": -1}).outcome():
            failures.append("x=-1 unexpectedly kills")
    # terminal depth: every model of the full kill constraint kills
    orig = C.enumerate_terminals(meta, 0, 30, through=8)
    mut = C.enumerate_terminals(meta, m2.id, 30, through=8)
    kill = None
    for o, m in itertools.product(orig, mut):
        c = X.build_kill(o, m)
        if S.is_satisfiable(c, domains).is_sat:
            kill = c
    if kill is None:
        failures.append("no SAT terminal kill constraint")
    else:
        models = list(S.enumerate_models(kill, domains))
        if models != [{"x": v} for v in range(-8, -1)]:
            failures.append(f"model set {models}")
        for mdl in models:
            if I.run_concrete(meta, 0, mdl).outcome() == \
                    I.run_concrete(meta, m2.id, mdl).outcome():
                failures.append(f"terminal model {mdl} fails to kill")
    elapsed = time.monotonic() - t0
    if elapsed >= 5.0:
        failures.append(f"{elapsed:.1f}s")
    _verdict(2, not failures, "; ".join(failures))


def test_criterion_3_meta_mutant_fidelity():
    t0 = time.monotonic()
    failures = []
    checked = 0
    for name in C.ALL_PROGRAMS:
        lts, mutants, _, meta = C.build(name)
        joint = 1
        for _, (lo, hi) in lts.inputs:
            joint *= hi - lo + 1
        if joint > 1 << 12:
            continue
        checked += 1
        for m in mutants:
            single = M.apply_mutant(lts, m)
            for test in I.all_inputs(lts):
                a = I.run_concrete(meta, m.id, test, step_budget=300)
                b = I.run_lts(single, test, step_budget=300)
                if a != b:
                    failures.append(f"{name} mutant {m.id} on {test}")
    if checked < 10:
        failures.append(f"only {checked} programs within domain bound")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        failures.append(f"{elapsed:.1f}s")
    _verdict(3, not failures, "; ".join(failures[:5]))


EXHAUSTIVE_CFG = dict(pp=1.0, mpd=0, cw=0, nsd=False, use_precondition=False,
                      budget_seconds=240.0)


def test_criterion_4_exhaustive_equivalence_on_loop_free_programs():
    t0 = time.monotonic()
    failures = []
    for name in C.LOOPFREE:
        lts, mutants, tce, meta = C.build(name)
        all_ids = [m.id for m in mutants]
        tests, _ = X.explore(meta, set(tce.kept()), [], X.Config(**EXHAUSTIVE_CFG))
        km = I.compute_kill_matrix(meta, all_ids,
                                   [t.valuation() for t in tests],
                                   step_budget=2000)
        killed = km.killed_mutants()
        oracle = I.killable_mutants(meta, all_ids, step_budget=2000)
        if killed != oracle:
            failures.append(
                f"{name}: killed^oracle={sorted(killed ^ oracle)}")
    elapsed = time.monotonic() - t0
    if elapsed >= 300.0:
        failures.append(f"{elapsed:.1f}s")
    _verdict(4, not failures, "; ".join(failures))


def test_criterion_5_zero_false_terminal_kills():
    failures = []
    for name in C.ALL_PROGRAMS:
        lts, mutants, tce, meta = C.build(name)
        for mode in ("semu", "infection-only", "vanilla"):
            cfg = X.Config(mode=mode, pp=1.0, max_states=2000,
                           budget_seconds=20.0)
            tests, _ = X.explore(meta, set(tce.kept()), [], cfg)
            for t in tests:
                if t.site != X.SITE_TERMINAL or t.mutant_id == 0:
                    continue
                a = I.run_concrete(meta, 0, t.valuation(), step_budget=2000)
                b = I.run_concrete(meta, t.mutant_id, t.valuation(),
                                   step_budget=2000)
                if a.outcome() == b.outcome():
                    failures.append(f"{name}/{mode}: {t}")
    _verdict(5, not failures, "; ".join(failures[:5]))


def test_criterion_6_tce_equivalence_soundness():
    failures = []
    for name in C.ALL_PROGRAMS:
        _, _, tce, meta = C.build(name)
        killable = I.killable_mutants(meta, tce.equivalent, step_budget=2000)
        if killable:
            failures.append(f"{name}: {sorted(killable)}")
    _verdict(6, not failures, "; ".join(failures))


def test_criterion_7_heuristic_parameter_contracts(fig1):
    failures = []
    # CW=2: two non-checkpoint branching statements between checkpoints
    src = ["input x: int in [-8,7];", "fn main() {", "var a = x;"]
    for i in range(6):
        src.append(f"if (x > {i}) {{ a = a + 1; }} else {{ a = a - 1; }}")
    src += ["output a;", "}"]
    six = L.lower_to_lts(P.parse_text("\n".join(src)))
    ms = [m for m in M.generate_mutants(six, ["RHS"]) if m.loc == 1]
    meta6 = M.build_meta_mutant(six, ms)
    _, stats = X.explore(meta6, [ms[0].id], [], X.Config(cw=2, pp=1.0))
    branch_locs = [l for l in six.locations if six.info(l).kind == "branch"]
    placed = {loc for _, loc, _ in stats.checkpoint_events}
    if placed != {branch_locs[2], branch_locs[5]}:
        failures.append(f"CW=2 checkpoints at {sorted(placed)}")
    # PP=0.5 keeps exactly 2 of 4 candidates
    cands = [X.SymbolicState(path=T.TRUE, store=(), out=(), loc=i, mut_id=1,
                             trail=(0,)) for i in range(4)]
    kept, pruned = X.select_branches(cands, X.Config(pp=0.5), {},
                                     random.Random(0))
    if not (len(kept) == 2 and len(pruned) == 2):
        failures.append(f"PP=0.5 kept {len(kept)} of 4")
    # NTPM=5 caps per-mutant tests
    lts, mutants, tce, meta = fig1
    _, stats = X.explore(meta, set(list(tce.kept())[:20]), [],
                         X.Config(ntpm=5, mpd=0, pp=0.0, max_states=4000))
    over = {m: n for m, n in stats.tests_per_mutant.items()
            if m != 0 and n > 5}
    if over:
        failures.append(f"NTPM overflow {over}")
    # seeded-mode membership: a prefix is followed iff a seed satisfies it
    seeds = [{"x": 2}, {"x": -5}]
    for states in (_frontier_at(meta, 0, 1), _frontier_at(meta, 0, 2)):
        for s in states:
            s = s.replace(compatible_seeds=tuple(range(len(seeds))))
            verdict, _ = X.apply_precondition(s, seeds, X.Config(), 99, set())
            member = any(T.holds(s.path, sd) for sd in seeds)
            if (verdict == X.FOLLOW) != member:
                failures.append(f"membership mismatch at loc {s.loc}")
    _verdict(7, not failures, "; ".join(failures))


def test_criterion_8_propagation_mode_comparison():
    t0 = time.monotonic()
    lts, mutants, _, meta = C.build("mask")
    rhs = [m.id for m in mutants if m.operator.startswith("RHS")]
    seeds = [{"x": 0}]
    kills = {}
    for mode in ("infection-only", "semu"):
        cfg = X.Config(mode=mode, pp=1.0, budget_seconds=30.0)
        tests, _ = X.explore(meta, rhs, seeds, cfg)
        km = I.compute_kill_matrix(meta, rhs, [t.valuation() for t in tests],
                                   step_budget=2000)
        kills[mode] = km.killed_mutants()
    differentiating = kills["semu"] - kills["infection-only"]
    failures = []
    if not differentiating:
        failures.append(f"semu={sorted(kills['semu'])} "
                        f"infection-only={sorted(kills['infection-only'])}")
    elapsed = time.monotonic() - t0
    if elapsed >= 120.0:
        failures.append(f"{elapsed:.1f}s")
    _verdict(8, not failures, "; ".join(failures))


def test_criterion_9_minimization_and_subsumption():
    failures = []
    for name in C.ALL_PROGRAMS:
        lts, mutants, tce, meta = C.build(name)
        cfg = X.Config(pp=1.0, max_states=2000, budget_seconds=20.0)
        tests, _ = X.explore(meta, set(tce.kept()), [], cfg)
        km = I.compute_kill_matrix(meta, list(tce.kept()),
                                   [t.valuation() for t in tests],
                                   step_budget=2000)
        chosen = I.greedy_minimize(km)
        covered = set()
        for i in chosen:
            covered |= {m for m in km.mutant_ids if km.killed(i, m)}
        if covered != km.killed_mutants():
            failures.append(f"{name}: minimized cover differs")
        groups = I.subsuming_groups(km)
        sets = [km.kill_set(g[0]) for g in groups]
        for a, b in itertools.combinations(sets, 2):
            if a <= b or b <= a:
                failures.append(f"{name}: comparable subsuming kill sets")
    _verdict(9, not failures, "; ".join(failures[:5]))
