"""The record base: the frozen records of every module keep the `repr`,
equality, hashing, frozenness and `replace` that their frozen dataclasses
had, and term nodes keep their interned identity."""

import hashlib
import os
import sys

import pytest

from mutkill import cli, interp as I, lts as L, mutation as M, parser as P
from mutkill import record, solver as S, symex as X, terms as T
from mutkill.terms import BoolLit, Cmp, Lit, Neg, Var

import conftest as C

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# SHA-256 of repr(L.lower_text(text)), of repr(M.generate_mutants(lts,
# M.SUPPORTED_OPERATORS)) and of repr(P.parse_text(text)) per program,
# captured from the frozen dataclasses these records replace
REPR_DIGESTS = {
    "bench/programs/classify.mimp": (
        "1dd7b0b18df0b5f93674b41f136d850f594187bf2d2d7295911bb6f91c5754a3",
        "3a511df7534ac185439675332176a83a5a303faa6e1f8bbc041edd7c1447c56f",
        "b68ee0c3f6687625ef267e1e856d8f82be6a57eaf181be6f2d7ed2b25c47256f"),
    "bench/programs/divmod.mimp": (
        "f2056cc949f062b27d02a31cf678aa236968f3668cf2304c11133e854d3afd7b",
        "b4c14eecd674aa1d6442a0a17ce9feded67fe06c8bce01571c84f83482e186dd",
        "8a1ebbf6539805cb7cbab26dc8c260b1acc97f3c585ab3c662f253151937b1e1"),
    "bench/programs/linear.mimp": (
        "f3f9c17bd6eafc6b25024f4ea02567966e7e74263ebebc56f0ba3a2abf088628",
        "1a6b4552005a4fa56d335c75833a162f394cc19a9ee8992e47c118f663010e40",
        "bb97de77fa4b949e778f4a6b98cf4edb2a9abd12c45ed20b9dc10552d26a77ce"),
    "bench/programs/max2.mimp": (
        "ec4f5194ce148113baaccc34c88d5f017ee4ca6c92090f2aabb0184ab877ad31",
        "b69ade80aaf556d2417b44ff4352feb2be51c352448936b56227d8afc31fa5db",
        "b7fb6af8c7af5632c9c38bbd9e20244f3411b0bf5fadc67287149482ff03d7c4"),
    "corpus/abs.mimp": (
        "114ef3e0a720e61ba5b8df17679b9d44f9bb956b0dd6d6f64b7fe07cdcfcf38a",
        "d3fe5d40d6112d60985a1c942fb56e041dffafb30aa4d43874bc5f53a706160d",
        "8397b6f718a561b4369b516ee379de8fad06a71592b6cd6666761ca1e62fbf43"),
    "corpus/callfn.mimp": (
        "2ed7e7cf81190ddf09559fb43cc8f906480c9c810c12de4a36209309dc3d6e1d",
        "019e59809443c19bc58ea54d8de8a2eb5382a0056e12894a27c72fff0f8589ff",
        "586013db370ed39c8ca4b458caf2f78aeced012fcff33287e8a532fdfa39df2d"),
    "corpus/clamp.mimp": (
        "6d36a606efeb1007937824c80d41fb2309ec305f786b1e3e4b49d5a3f4458396",
        "c73b0923fe54bfe5ccf54bd8d6e2a13d30a718071b2ac1bb9c715dc1b22d9982",
        "a7300ab67ea6880739e9b991e56ad6643fbda93e1cde7eb063eef5a12f0f085c"),
    "corpus/classify.mimp": (
        "c1b05359a04bd1a39debe13c4999e5db4db593f4d9eeb25df9bdaa9c5f47b40f",
        "fe6828fbafd4a93c1b3cdef4d34a8c2d561011c93d371e77474ea435f86f3ec1",
        "20a8d1fde1ecbff48a4585d708ac83957816560f7e3e8aa2276d088cb987eb23"),
    "corpus/countdown.mimp": (
        "2cd3a17f5f418c1eaeffc2d1d72d8ff66922451c396057ac3f4f32b560ab5e17",
        "50dd6b099756976b4f3e8fc431bade9943ed0b1fea9cf9502fe91aaa4fc0f374",
        "5aaf43e4e68753848a9b773f6f1b5c5ec5bcf08604a192627215cb75fa899c8e"),
    "corpus/divmod.mimp": (
        "dcfebff8ed6cf985b4f2e2233cd11fcfc84f0eefa43360c3da8a31d194175773",
        "b4c14eecd674aa1d6442a0a17ce9feded67fe06c8bce01571c84f83482e186dd",
        "7b7dab9b652c73fae51075afb2662bea5d8dcaac17ea0154c61034a623601408"),
    "corpus/fig1.mimp": (
        "75dacdb1b63570869681498f6721bb2bb404205618b737aa73fabf6aef018dd0",
        "f844e2c69da04628b97a3f2dc3f0558df5da2648679873ab9f9c44677506b1e5",
        "121f004f1acff409025a62a424de8fb93cf8843bc1d67053912f399e491a8bca"),
    "corpus/mask.mimp": (
        "1f4f8015569a88ef65555df4bca129533b4b623f5b5ab06267c5fd85e2404bfd",
        "d264c24dc855475411f5a62bbbb7cc92c4b3c30d108417a1d866bccc18ee809b",
        "5ad46a656774ba49df38cfc3c7a1a3b906cbf1ff1773cb242323ddcd17ec9e8b"),
    "corpus/max2.mimp": (
        "a279532b3905ce6c4770fc97a53ef0e6261104f25daa1f0459306a36e0b2e498",
        "b77278e4c554b8f2f56d83330cf44459db349e7d445796c10eafb8360f137594",
        "348c921e9f8626e1408f92f33a62452a45357d3becceb201897cc3ac95e322d0"),
    "corpus/parity.mimp": (
        "bde236de1af227b7e85d8536748ce8a81a89afc56538ac709e9eefbe4b68fa32",
        "159574e9afc7b8cf83d3be642b85df807c3466f791ee8cb22dfc352dc59dcb16",
        "e4ba60c7e6797412af92bda51010a322eb42336a4f86ae1ce9e3a23c8b20ff39"),
    "corpus/poly.mimp": (
        "fd30ac2432621dfa71bc4ce646e546b3557a2bc5efcf782551dcf8d8f57ffa68",
        "f550daa480fa258cb1b3197490edc9c74d8eb2b2cc5a7023ee5a5de4709b3efa",
        "d61d562cea18289a88f1f14216afeacd6036713badf2941df5a77d5cf4b0187d"),
    "corpus/sign.mimp": (
        "39e6049fad03439cead6d8095dea62496da44bfe02e2760843b5b99f8ba145f4",
        "ccf5224cde3febbf617d32fedacd3dd6a024ef4c558e518f229ed10ceb19eba8",
        "8a1ee7264de1cde410eebf69061f1821251b9573f9bc1b5e8710ac9f5222b3d4"),
    "corpus/sumloop.mimp": (
        "09d32a7decd4d2855faddbf5737f1b87dc8c7753fe66059a20fedb2c1de1d410",
        "f0fae53b4f5d95535dfcf188c21db3bc61ae664021aee580f659a8586a3e9bd2",
        "2e41be5ba248dd6606ad621503938907b3db5ff804798b8a1775120f211a0e0d"),
    "tests/logic.mimp": (
        "a9e8bb05f74f099e881224952bd698f19ace7e4383a4a9ceeb1f147257325fde",
        "f83dcc37a4409d5b6d72809a40a142a1f3727b901d06aa7cd7018289f56b7fd7",
        "a0b29d68bbeb37aa12128a557a50889107530b616333cd6667e2942749826ec8"),
}

CONFIG_REPR = ("Config(pl='GMD2MS', cw=0, pp=0.25, pss='RND', mpd=2, nsd=False, ntpm=5, "
               "mode='semu', budget_seconds=60.0, max_states=None, max_depth=200, "
               "rng_seed=0, use_precondition=True)")
MANIFEST_REPR = (f"RunManifest(program='p', out_dir='o', seeds=None, config={CONFIG_REPR}, "
                 "operators=('AOR', 'CRP', 'LCR', 'RHS', 'ROR', 'SDL'), step_budget=100000)")


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("path", sorted(REPR_DIGESTS))
def test_reprs_are_the_dataclass_ones(path):
    assert sorted(os.path.relpath(p, ROOT) for p in C.every_program()) == sorted(REPR_DIGESTS)
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        text = f.read()
    lts = L.lower_text(text)
    mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
    assert (_sha(lts), _sha(mutants), _sha(P.parse_text(text))) == REPR_DIGESTS[path]


def test_defaults_print_as_before():
    assert repr(X.Config()) == CONFIG_REPR
    assert repr(cli.RunManifest("p", "o")) == MANIFEST_REPR


# one record of every class, and a field to replace with another value
x = Var("x")
GC = L.GuardedCommand(Cmp("<", x, Lit(0)), (("y", x),), None)
LTS = L.lower_text("input x: int in [-2, 2];\nfn main() { output x; }")
MUTANT = M.Mutant(1, "CRP:0->1", 1, (4, 3), "0", "1", ((1, GC, 2),), ())
SAMPLES = [
    (P.SourceProgram("fn main() { }"), "origin", "f.mimp"),
    (P._Token("name", "x", (1, 1)), "text", "y"),
    (P.SVarDecl("n", None, (1, 1)), "init", Lit(0)),
    (P.SAssign("n", x, (1, 1)), "expr", Lit(1)),
    (P.SIf(BoolLit(True), (), (), (1, 1)), "els", (P.SOutput(x),)),
    (P.SWhile(BoolLit(False), (), (1, 1)), "cond", BoolLit(True)),
    (P.SOutput(x, (1, 1)), "expr", Neg(x)),
    (P.SCall("f", (x,), (1, 1)), "fn", "g"),
    (P.InputDecl("x", -8, 7, (1, 1)), "hi", 8),
    (P.FnDef("main", (), (), (1, 1)), "params", ("a",)),
    (P.Ast((), ()), "entry", "start"),
    (GC, "emit", x),
    (L.LocInfo("branch", (4, 3)), "pos", (5, 3)),
    (LTS, "entry", 2),
    (MUTANT, "loc", 2),
    (M.build_meta_mutant(LTS, []), "index", ((1, MUTANT),)),
    (M.TceReport((1,), (), (2,)), "surviving", (2, 3)),
    (I.Trace(("x",), (((0,), 1),), (), "terminal", 0), "status", "error"),
    (I.KillMatrix(((("x", 0),),), (1,), (("K",),)), "cells", (("S",),)),
    (S.SolverResult("unsat"), "model", {"x": 1}),
    (S.SolverHandle.bounded({"x": (0, 1)}), "domains", (("x", (0, 2)),)),
    (X.Config(), "pp", 1.0),
    (X.initial_state(LTS), "depth", 3),
    (X.GeneratedTest((("x", 1),), 1, "terminal", 2), "k", 3),
    (cli.RunManifest("p", "o"), "seeds", "s.txt"),
]
IDS = [type(r).__name__ for r, _, _ in SAMPLES]


def _record_classes(cls=record.Record):
    for sub in cls.__subclasses__():
        if sub.__module__.startswith("mutkill."):
            yield sub
            yield from _record_classes(sub)


def test_every_record_class_is_sampled():
    nodes = set(T._Node.__subclasses__()) | {T._Node}
    classes = set(_record_classes()) - nodes - {P._Positioned}
    assert classes == {type(r) for r, _, _ in SAMPLES}


@pytest.mark.parametrize("rec, field, value", SAMPLES, ids=IDS)
class TestRecord:
    def test_equality_needs_the_same_class(self, rec, field, value):
        values = [getattr(rec, f) for f in rec._fields]
        assert rec == type(rec)(*values)
        look_alike = type("LookAlike", (type(rec),), {"__slots__": ()})
        assert look_alike._fields == rec._fields
        assert rec != look_alike(*values) and look_alike(*values) != rec

    def test_hash_agrees_with_equality(self, rec, field, value):
        copy = rec.replace()
        assert copy == rec and hash(copy) == hash(rec)
        assert rec.replace(**{field: value}) != rec

    def test_fields_are_frozen(self, rec, field, value):
        for f in rec._fields:
            with pytest.raises(AttributeError):
                setattr(rec, f, value)
            with pytest.raises(AttributeError):
                delattr(rec, f)
        assert getattr(rec, field) != value

    def test_replace_changes_only_the_named_fields(self, rec, field, value):
        new = rec.replace(**{field: value})
        assert type(new) is type(rec) and new is not rec
        assert getattr(new, field) == value
        for f in rec._fields:
            if f != field:
                assert getattr(new, f) is getattr(rec, f)
        with pytest.raises(TypeError):
            rec.replace(no_such_field=1)

    def test_keyword_construction(self, rec, field, value):
        named = {f: getattr(rec, f) for f in rec._fields}
        assert type(rec)(**named) == rec


class TestPerClass:
    def test_statement_positions_are_neither_compared_nor_printed(self):
        a, b = P.SAssign("n", x, (1, 1)), P.SAssign("n", x, (7, 9))
        assert a == b and hash(a) == hash(b)
        assert repr(a) == repr(b) == "SAssign(name='n', expr=Var(name='x'))"
        assert P.SOutput(x).pos == (0, 0)
        assert P.InputDecl("x", 0, 1, (1, 1)) == P.InputDecl("x", 0, 1, (2, 1))

    def test_location_positions_are_compared(self):
        assert L.LocInfo("branch", (4, 3)) != L.LocInfo("branch", (5, 3))
        assert repr(L.LocInfo("branch", (4, 3))) == "LocInfo(kind='branch', pos=(4, 3))"

    def test_cached_properties_stay_out_of_the_fields(self):
        lts = LTS.replace()
        assert lts.successors and "successors" in vars(lts)
        assert lts == LTS and hash(lts) == hash(LTS) and repr(lts) == repr(LTS)
        assert "successors" not in vars(lts.replace(entry=2))
        meta = M.build_meta_mutant(LTS, [])
        assert meta.program(0) is LTS and meta.mutation_points == {}

    def test_checks_and_defaults(self):
        with pytest.raises(ValueError):
            P.SourceProgram("")
        with pytest.raises(ValueError):
            X.Config(pp=2.0)
        with pytest.raises(ValueError):
            X.Config().replace(mode="other")
        with pytest.raises(TypeError):
            L.LocInfo("branch")
        assert cli.RunManifest("p", "o").config == X.Config()
        assert L.GuardedCommand() == L.GuardedCommand(T.TRUE, (), None)

    def test_exploration_stats_are_mutable_and_own_their_containers(self):
        a, b = X.ExplorationStats(), X.ExplorationStats()
        a.states_created += 1
        a.tests_per_mutant[1] = 2
        a.checkpoint_events.append((1, 2, 3))
        assert (b.states_created, b.tests_per_mutant, b.checkpoint_events) == (0, {}, [])

    def test_repr_takes_one_frame_per_level(self):
        depths = []

        class Leaf:
            _vars = frozenset()

            def __repr__(self):
                depths.append(len(_frames()))
                return "leaf"

        leaf = Leaf()
        for n in (10, 30):
            t = leaf
            for _ in range(n):
                t = Neg(t)
            assert repr(t) == "Neg(operand=" * n + "leaf" + ")" * n
        assert depths[1] - depths[0] == 20

    def test_manifest_overrides(self):
        _, args = cli.parse_args(
            ["gen", "--program", "p.mimp", "--mode", "vanilla", "--budget-seconds", "3",
             "--rng-seed", "4", "--operators", "SDL,ROR"])
        want = cli.RunManifest(
            "p.mimp", "out", config=X.Config(mode="vanilla", budget_seconds=3.0, rng_seed=4),
            operators=("SDL", "ROR"))
        assert cli._manifest_from_args(args) == want
        _, args = cli.parse_args(["gen", "--program", "p.mimp"])
        assert cli._manifest_from_args(args) == cli.RunManifest("p.mimp", "out")


def _frames():
    out, f = [], sys._getframe()
    while f is not None:
        out.append(f)
        f = f.f_back
    return out
