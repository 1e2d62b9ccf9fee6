"""Mutant generation, application, TCE and the meta-mutant.

`python3 tests/test_mutation.py` prints the SHA-256 of the concatenated
`tce.tsv` and `mutants.tsv` texts over `conftest.every_program()` and over
900 programs of `test_generated`'s generator (`random.Random(1..3)`, 300
each), so that two trees' mutants and TCE verdicts compare by one command.
"""

import hashlib
import os
import random
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import pytest
from hypothesis import given, settings, strategies as st

from mutkill import interp as I
from mutkill import mutation as M
from mutkill import parser as P
from mutkill import lts as L
from mutkill import terms as T
from mutkill.terms import And, Bin, BoolLit, Cmp, Lit, Neg, Not, Or, Var

import conftest as C
import test_generated as G


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
        # the deleted statement keeps its step but does nothing
        for m in ms:
            assert m.replacement == L.Step((), None, m.loc + 1)

    def test_branch_mutants_replace_both_arms(self):
        lts = lower("input x: int in [-2,1];\n"
                    "fn main() { if (x < 0) { output 0; } else { output 1; } }")
        m = next(m for m in M.generate_mutants(lts, ["ROR"]))
        # the one move of the branch, its arms kept: the else arm is taken
        # where the rewritten guard fails
        assert m.replacement == lts.move(1).replace(guard=T.Cmp("<=", T.Var("x"), T.Lit(0)))

    def test_lcr_swaps_and_and_or(self):
        with open(C.LOGIC, encoding="utf-8") as f:
            lts = lower(f.read())
        ms = M.generate_mutants(lts, ["LCR"])
        assert [(m.loc, m.operator) for m in ms] == [
            (2, "LCR:x > 0 && y > 0->x > 0 || y > 0"),
            (4, "LCR:x < -1 || !(y == 0)->x < -1 && !(y == 0)"),
            (6, "LCR:!(x / y > 0) && (x != 0 || y < 0)->!(x / y > 0) || (x != 0 || y < 0)"),
            (6, "LCR:x != 0 || y < 0->x != 0 && y < 0"),
        ]
        # each rewrites the branch's guard and keeps its arms
        guards = [T.render(m.replacement.guard) for m in ms]
        assert guards == ["x > 0 || y > 0", "x < -1 && !(y == 0)",
                          "!(x / y > 0) || (x != 0 || y < 0)",
                          "!(x / y > 0) && (x != 0 && y < 0)"]
        for m in ms:
            assert L.targets(m.replacement) == L.targets(lts.move(m.loc))

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


def ref_rewrites(t, rewriter):
    """`M._rewrites` by a walk over each node class's fields."""
    out = [(repl, t, repl) for repl in rewriter(t)]

    def child(attr, sub):
        for new_sub, old_node, new_node in ref_rewrites(sub, rewriter):
            out.append((t.replace(**{attr: new_sub}), old_node, new_node))

    if isinstance(t, (Neg, Not)):
        child("operand", t.operand)
    elif isinstance(t, (Bin, Cmp)):
        child("left", t.left)
        child("right", t.right)
    elif isinstance(t, (And, Or)):
        for i, sub in enumerate(t.items):
            for new_sub, old_node, new_node in ref_rewrites(sub, rewriter):
                items = t.items[:i] + (new_sub,) + t.items[i + 1:]
                out.append((t.replace(items=items), old_node, new_node))
    return out


def rewritable_terms():
    """Integer and boolean terms with every operator, Neg and Not, and And
    and Or nodes of 0 to 3 items."""
    ints = st.recursive(
        st.one_of(st.integers(-3, 3).map(Lit), st.sampled_from("xy").map(Var)),
        lambda kids: st.one_of(
            kids.map(Neg),
            st.tuples(st.sampled_from(T.ARITH_OPS), kids, kids).map(lambda t: Bin(*t))),
        max_leaves=6)
    cmps = st.tuples(st.sampled_from(T.CMP_OPS), ints, ints).map(lambda t: Cmp(*t))
    bools = st.recursive(
        st.one_of(st.booleans().map(BoolLit), cmps),
        lambda kids: st.one_of(
            kids.map(Not),
            st.lists(kids, max_size=3).map(lambda xs: And(tuple(xs))),
            st.lists(kids, max_size=3).map(lambda xs: Or(tuple(xs)))),
        max_leaves=6)
    return st.one_of(ints, bools)


class TestRewrites:
    @pytest.mark.parametrize("rewriter", [M._aor, M._ror, M._lcr, M._crp],
                             ids=["AOR", "ROR", "LCR", "CRP"])
    @given(t=rewritable_terms())
    @settings(max_examples=200)
    def test_rewrites_equal_a_walk_over_the_fields(self, rewriter, t):
        # mutant IDs follow the order of these triples
        assert M._rewrites(t, rewriter) == ref_rewrites(t, rewriter)


class TestApply:
    def test_apply_golden_mutant(self, fig1):
        lts, mutants, _, _ = fig1
        m1 = C.golden_m1(mutants)
        mutated = M.apply_mutant(lts, m1)
        assert I.run_lts(mutated, {"x": 2}).output == (0,)
        assert I.run_lts(lts, {"x": 2}).output == (2,)

    def test_apply_preserves_structure(self):
        # the engine reads every mutant's static facts (branches, terminals,
        # distances) off the base program
        for path in C.every_program():
            with open(path, encoding="utf-8") as f:
                lts = L.lower_text(f.read(), path)
            ends = [(loc, L.targets(move)) for loc, move in lts.moves]
            for m in M.generate_mutants(lts, M.SUPPORTED_OPERATORS):
                mutated = M.apply_mutant(lts, m)
                assert mutated == lts.replace(moves=mutated.moves)
                assert [(loc, L.targets(move)) for loc, move in mutated.moves] == ends
                C.validate_lts(mutated)


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

    def test_a_division_erased_by_normalization_is_not_equivalent(self):
        # 0 * (x / x) normalizes to 0, but the mutant errors at x = 0
        lts = lower("input x: int in [-3, 3];\n"
                    "fn main() { output 0 * (x * x); }")
        ms = M.generate_mutants(lts, ["AOR"])
        tce = M.tce_filter(lts, ms)
        dividing = {m.id for m in ms if m.operator in ("AOR:x * x->x / x", "AOR:x * x->x % x")}
        assert len(dividing) == 2
        assert not dividing & set(tce.equivalent)
        meta = M.build_meta_mutant(lts, ms)
        assert dividing <= I.killable_mutants(meta, dividing, step_budget=100)

    def test_a_guard_division_absorbed_by_normalization_is_not_equivalent(self):
        # `x < x` absorbs the conjunction to `false`, but the mutant that
        # divides by 0 errors at the branch on every input
        lts = lower("input x: int in [-3, 3];\n"
                    "fn main() { if (2 / 3 < 3 && x < x) { output 1; } else { output 2; } }")
        ms = M.generate_mutants(lts, ["CRP"])
        # the first `3` in pre-order is the divisor
        zero = next(m for m in ms if m.operator == "CRP:3->0")
        tce = M.tce_filter(lts, ms)
        assert zero.id not in tce.equivalent
        meta = M.build_meta_mutant(lts, ms)
        assert I.killable_mutants(meta, tce.equivalent) == set()
        assert I.run_concrete(meta, zero.id, {"x": 0}).status == I.ERROR

    def test_a_divisor_that_evaluation_never_reaches_is_not_listed(self):
        # `x < x` is false, so `&&` never evaluates `2 / 3`: dividing by 0
        # there changes nothing
        lts = lower("input x: int in [-3, 3];\n"
                    "fn main() { if (x < x && 2 / 3 < 3) { output 1; } else { output 2; } }")
        ms = M.generate_mutants(lts, ["CRP"])
        # the first `3` in pre-order is the divisor
        zero = next(m for m in ms if m.operator == "CRP:3->0")
        tce = M.tce_filter(lts, ms)
        assert zero.id in tce.equivalent
        meta = M.build_meta_mutant(lts, ms)
        assert I.killable_mutants(meta, tce.equivalent) == set()

    def test_a_rewritten_guard_with_the_same_normal_form_is_equivalent(self):
        # `3 * t > t` and `4 * t > t` both normalize to `-t < 0`, their
        # negations to different forms: only the guard is compared
        lts = lower("input t: int in [-3, 3];\n"
                    "fn main() { if (3 * t > t) { output 1; } else { output 2; } }")
        ms = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        four = next(m for m in ms if m.operator == "CRP:3->4")
        tce = M.tce_filter(lts, ms)
        assert four.id in tce.equivalent
        meta = M.build_meta_mutant(lts, ms)
        assert I.killable_mutants(meta, tce.equivalent) == set()

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

    @pytest.mark.parametrize("path", C.every_program(), ids=os.path.basename)
    def test_report_equals_one_normal_form_per_mutant(self, path):
        # the reference normalizes each mutant program whole, with nothing
        # shared between mutants
        with open(path, encoding="utf-8") as f:
            lts = L.lower_text(f.read(), path)
        mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        original = M._normal_form(lts)
        forms = {m.id: M._normal_form(M.apply_mutant(lts, m)) for m in mutants}
        by_form = {}
        for i, form in sorted(forms.items()):
            by_form.setdefault(form, []).append(i)
        equivalent = tuple(by_form.pop(original, ()))
        groups = tuple(tuple(ids) for _, ids in sorted(by_form.items()) if len(ids) > 1)
        surviving = tuple(ids[0] for ids in by_form.values() if len(ids) == 1)
        want = M.TceReport(equivalent, groups, tuple(sorted(surviving)))
        assert M.tce_filter(lts, mutants) == want

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
        listed = [i for ids in meta.mutation_points.values() for i in ids]
        assert sorted(listed) == [m.id for m in mutants]
        for loc, ids in meta.mutation_points.items():
            assert ids == tuple(sorted(ids))
            for i in ids:
                assert meta.mutants[i].loc == loc

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
        clash = [ms[0], ms[1].replace(id=ms[0].id)]
        with pytest.raises(M.IdCollision):
            M.build_meta_mutant(lts, clash)


class TestPrograms:
    @pytest.mark.parametrize("name", C.ALL_PROGRAMS)
    def test_program_zero_is_the_base_program(self, name):
        meta = C.build(name)[3]
        assert meta.program(0).moves == meta.base.moves

    @pytest.mark.parametrize("name", C.ALL_PROGRAMS)
    def test_programs_are_selector_free(self, name):
        meta = C.build(name)[3]
        for k in (0, *meta.mutants):
            C.validate_lts(meta.program(k))

    def test_program_is_cached(self, fig1):
        meta = fig1[3]
        assert meta.program(3) is meta.program(3)

    def test_program_is_the_standalone_mutant_past_a_division(self):
        # the mutants of the branch never evaluate the original guard
        # x / (y - 1) > 0, so they run as they do standalone
        lts = lower(C.DIVIDING_BRANCH)
        mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        meta = M.build_meta_mutant(lts, mutants)
        for m in mutants:
            single = M.apply_mutant(lts, m)
            for test in I.all_inputs(lts):
                got = I.run_concrete(meta, m.id, test)
                assert got.outcome() == I.run_lts(single, test).outcome(), (m, test)


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


def digests(texts) -> str:
    """The SHA-256 of the concatenated `tce.tsv` and `mutants.tsv` texts of
    the programs `texts`, every operator applied."""
    h = hashlib.sha256()
    for text in texts:
        lts = L.lower_text(text)
        mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
        h.update(M.tce_tsv(M.tce_filter(lts, mutants), mutants).encode())
        h.update(M.mutants_tsv(mutants).encode())
    return h.hexdigest()


if __name__ == "__main__":
    def read(path):
        with open(path, encoding="utf-8") as f:
            return f.read()

    print("programs", digests(map(read, C.every_program())))
    rngs = [random.Random(seed) for seed in (1, 2, 3)]
    print("generated", digests(G.program(rng) for rng in rngs for _ in range(300)))
