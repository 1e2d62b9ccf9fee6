import dataclasses
import itertools

import pytest

from mutkill import interp as I
from mutkill import mutation as M
from mutkill import parser as P
from mutkill import lts as L
from mutkill import terms as T

import conftest as C


def lower(text: str) -> L.Lts:
    return L.lower_to_lts(P.parse_text(text))


class TestGeneration:
    def test_rhs_offsets_an_assignment(self):
        lts = lower("input x: int in [-2,1];\n"
                    "fn main() { var n = x; output n; }")
        ms = M.generate_mutants(lts, ["RHS"])
        labels = sorted(m.operator for m in ms if m.loc == 1)
        assert labels == ["RHS:x->x + 1", "RHS:x->x - 1"]

    def test_crp_rewrites_a_constant(self):
        lts = lower("input x: int in [-2,1];\n"
                    "fn main() { x = x - 1; output x; }")
        got = {m.operator for m in M.generate_mutants(lts, ["CRP"]) if m.loc == 1}
        assert got == {"CRP:1->2", "CRP:1->0", "CRP:1->-1"}

    def test_ror_covers_the_other_five_operators(self):
        lts = lower("input x: int in [-2,1];\n"
                    "fn main() { if (x < 0) { output 0; } else { output 1; } }")
        got = {m.operator for m in M.generate_mutants(lts, ["ROR"])}
        assert got == {f"ROR:x < 0->x {op} 0" for op in ("<=", ">", ">=", "==", "!=")}

    def test_sdl_empties_statements(self):
        lts = lower("input x: int in [-2,1];\n"
                    "fn main() { x = x + 1; output x; }")
        ms = M.generate_mutants(lts, ["SDL"])
        assert [m.loc for m in ms] == [1, 2]
        # the deleted statement keeps its transition but does nothing
        for m in ms:
            (src, gc, dst), = m.replacement
            assert gc.update == () and gc.emit is None

    def test_branch_mutants_replace_both_arms(self):
        lts = lower("input x: int in [-2,1];\n"
                    "fn main() { if (x < 0) { output 0; } else { output 1; } }")
        m = next(m for m in M.generate_mutants(lts, ["ROR"]))
        assert len(m.removed) == 2
        assert len(m.replacement) == 2
        g_pos, g_neg = m.replacement[0][1].guard, m.replacement[1][1].guard
        assert T.normalize_bool(T.conj([g_pos, g_neg])) == T.FALSE

    def test_ids_dense_from_one(self):
        _, mutants, _, _ = C.build("fig1")
        assert [m.id for m in mutants] == list(range(1, len(mutants) + 1))

    def test_deterministic_across_runs(self):
        lts = C.load_lts("fig1")
        a = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        b = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        assert a == b

    def test_operator_subset_is_a_sublist(self):
        lts = C.load_lts("abs")
        every = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        only = M.generate_mutants(lts, ["SDL"])
        assert [(m.operator, m.loc) for m in only] == \
            [(m.operator, m.loc) for m in every if m.operator.startswith("SDL")]

    def test_unknown_operator(self):
        with pytest.raises(M.UnknownOperator):
            M.generate_mutants(C.load_lts("abs"), ["ABC"])


class TestApply:
    def test_apply_golden_mutant(self, fig1):
        lts, mutants, _, _ = fig1
        m1 = C.golden_m1(mutants)
        mutated = M.apply_mutant(lts, m1)
        assert I.run_lts(mutated, {"x": 2}).output == (0,)
        assert I.run_lts(lts, {"x": 2}).output == (2,)

    def test_apply_preserves_structure(self, fig1):
        lts, mutants, _, _ = fig1
        for m in mutants[:10]:
            mutated = M.apply_mutant(lts, m)
            assert mutated.locations == lts.locations
            L.validate_lts(mutated)


class TestTce:
    def test_equivalent_rewrite_detected(self):
        lts = lower("input x: int in [-2,1];\n"
                    "fn main() { x = x + 0; output x; }")
        ms = M.generate_mutants(lts, ["AOR"])
        sub = next(m for m in ms if m.operator == "AOR:x + 0->x - 0")
        tce = M.tce_filter(lts, ms)
        assert sub.id in tce.equivalent

    def test_duplicates_grouped(self):
        # x <= 0 (ROR) and x < 1 (CRP) are the same predicate over integers
        lts = lower("input x: int in [-2,1];\n"
                    "fn main() { if (x < 0) { output 0; } else { output 1; } }")
        ms = M.generate_mutants(lts, ["CRP", "ROR"])
        le = next(m for m in ms if m.operator == "ROR:x < 0->x <= 0")
        lt1 = next(m for m in ms if m.operator == "CRP:0->1")
        tce = M.tce_filter(lts, ms)
        group = next(g for g in tce.duplicate_groups if le.id in g)
        assert lt1.id in group
        assert min(group) in tce.representatives()

    def test_partition_is_total(self, fig1):
        _, mutants, tce, _ = fig1
        grouped = {i for g in tce.duplicate_groups for i in g}
        everything = set(tce.equivalent) | grouped | set(tce.surviving)
        assert everything == {m.id for m in mutants}
        assert not set(tce.equivalent) & grouped
        assert not set(tce.equivalent) & set(tce.surviving)
        assert not grouped & set(tce.surviving)

    def test_golden_mutants_survive_filtering(self, fig1):
        _, mutants, tce, _ = fig1
        kept = set(tce.kept())
        assert C.golden_m1(mutants).id in kept
        assert C.golden_m2(mutants).id in kept

    @pytest.mark.parametrize("name", ["abs", "mask", "parity", "divmod"])
    def test_equivalence_verdicts_sound(self, name):
        # no mutant reported equivalent may be killable by any input
        lts, mutants, tce, meta = C.build(name)
        killable = I.killable_mutants(meta, tce.equivalent, step_budget=2000)
        assert killable == set()

    def test_duplicates_behave_identically(self):
        lts, mutants, tce, meta = C.build("abs")
        for group in tce.duplicate_groups:
            for test in I.all_inputs(lts):
                outcomes = {I.run_concrete(meta, i, test, step_budget=2000).outcome()
                            for i in group}
                assert len(outcomes) == 1, (group, test)


class TestMetaMutant:
    def test_selector_zero_is_the_original(self, fig1):
        lts, _, _, meta = fig1
        for test in I.all_inputs(lts):
            assert I.run_concrete(meta, 0, test, step_budget=2000).outcome() == \
                I.run_lts(lts, test, step_budget=2000).outcome()

    def test_full_fidelity_one_program(self):
        lts, mutants, _, meta = C.build("abs")
        for m in mutants:
            single = M.apply_mutant(lts, m)
            for test in I.all_inputs(lts):
                assert I.run_concrete(meta, m.id, test, step_budget=2000).outcome() \
                    == I.run_lts(single, test, step_budget=2000).outcome(), (m, test)

    def test_mutation_points_cover_all_mutants(self, fig1):
        _, mutants, _, meta = fig1
        listed = [i for _, ids in meta.points for i in ids]
        assert sorted(listed) == [m.id for m in mutants]
        for loc, ids in meta.points:
            assert ids == tuple(sorted(ids))
            for i in ids:
                assert meta.mutants[i].loc == loc

    def test_selector_guards_are_exclusive(self, fig1):
        _, _, _, meta = fig1
        # at a mutation point, each mutant id enables exactly one alternative
        for loc, ids in meta.points:
            for mid in (0,) + ids:
                env = {"mutId": mid}
                live = [gc for _, gc, _ in meta.lts.successors[loc]
                        if not T.normalize_bool(
                            T.subst(gc.guard, {"mutId": T.Lit(mid)})) == T.FALSE]
                assert live, (loc, mid)

    def test_zero_mutants_yields_plain_program(self):
        lts = C.load_lts("abs")
        meta = M.build_meta_mutant(lts, [])
        assert meta.index == ()
        for test in I.all_inputs(lts):
            assert I.run_concrete(meta, 0, test).outcome() == \
                I.run_lts(lts, test).outcome()

    def test_id_collision_rejected(self):
        lts = C.load_lts("abs")
        ms = M.generate_mutants(lts, ["SDL"])
        import dataclasses
        clash = [ms[0], dataclasses.replace(ms[1], id=ms[0].id)]
        with pytest.raises(M.IdCollision):
            M.build_meta_mutant(lts, clash)


def _unfolded(meta: M.MetaMutant, mut_id: int) -> L.Lts:
    """The meta-mutant with the selector replaced by a literal and nothing
    folded away: every guard is evaluated as the meta-mutant evaluates it."""
    sel = {L.MUT_ID: T.Lit(mut_id)}
    return dataclasses.replace(meta.lts, variables=meta.base.variables, transitions=tuple(
        (src, dataclasses.replace(gc, guard=T.subst(gc.guard, sel)), dst)
        for src, gc, dst in meta.lts.transitions))


class TestPrograms:
    @pytest.mark.parametrize("name", C.ALL_PROGRAMS)
    def test_program_zero_is_the_base_program(self, name):
        meta = C.build(name)[3]
        assert meta.program(0).transitions == meta.base.transitions

    @pytest.mark.parametrize("name", C.ALL_PROGRAMS)
    def test_programs_are_selector_free(self, name):
        meta = C.build(name)[3]
        for k in (0,) + meta.mutant_ids():
            prog = meta.program(k)
            assert L.MUT_ID not in prog.variables
            for _, gc, _ in prog.transitions:
                assert L.MUT_ID not in T.variables(gc.guard), (k, gc)
            L.validate_lts(prog, max_fanout=None)

    def test_program_is_cached(self, fig1):
        meta = fig1[3]
        assert meta.program(3) is meta.program(3)

    def test_program_is_the_standalone_mutant_past_a_division(self):
        # the selector comes before the original guard x / (y - 1) > 0, so
        # the mutants of that branch run as they do standalone
        lts = lower(C.DIVIDING_BRANCH)
        mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        meta = M.build_meta_mutant(lts, mutants)
        for m in mutants:
            single = M.apply_mutant(lts, m)
            unfolded = _unfolded(meta, m.id)
            for test in I.all_inputs(lts):
                got = I.run_concrete(meta, m.id, test)
                assert got.outcome() == I.run_lts(single, test).outcome(), (m, test)
                assert got == I.run_lts(unfolded, test), (m, test)

    @pytest.mark.parametrize("name", ["fig1", "divmod", "callfn"])
    def test_program_runs_as_the_meta_mutant(self, name):
        lts, _, _, meta = C.build(name)
        tests = list(itertools.islice(I.all_inputs(lts), 0, None, 7))
        for k in (0,) + meta.mutant_ids():
            unfolded = _unfolded(meta, k)
            for test in tests:
                assert I.run_concrete(meta, k, test, step_budget=300) == \
                    I.run_lts(unfolded, test, step_budget=300), (k, test)


class TestReports:
    def test_mutants_tsv_shape(self, fig1):
        _, mutants, _, _ = fig1
        lines = M.mutants_tsv(mutants).strip().splitlines()
        assert lines[0].split("\t") == \
            ["id", "operator", "line", "column", "original", "mutated"]
        assert len(lines) == len(mutants) + 1
        first = lines[1].split("\t")
        assert first[0] == "1"

    def test_tce_tsv_verdicts(self, fig1):
        _, mutants, tce, _ = fig1
        lines = M.tce_tsv(tce, mutants).strip().splitlines()
        verdicts = {line.split("\t")[0]: line.split("\t")[-1] for line in lines[1:]}
        assert len(verdicts) == len(mutants)
        for v in verdicts.values():
            assert v == "equivalent" or v == "surviving" or v.startswith("duplicate(")
        for e in tce.equivalent:
            assert verdicts[str(e)] == "equivalent"
