"""The record base: the frozen records of every module keep the `repr`,
equality, hashing, frozenness and `replace` that their frozen dataclasses
had, and term nodes keep their interned identity.

`python3 tests/test_record.py` prints `REPR_DIGESTS` for the checked-out
tree, from the same digest function as the test."""

import copy
import hashlib
import os
import pickle
import sys

if __name__ == "__main__":
    sys.path.insert(0, os.path.join(os.path.dirname(__file__), os.pardir, "src"))

import pytest

from mutkill import cli, interp as I, lts as L, mutation as M, parser as P
from mutkill import record, solver as S, symex as X, terms as T
from mutkill.terms import BoolLit, Cmp, Lit, Neg, Var

import conftest as C

ROOT = os.path.join(os.path.dirname(__file__), os.pardir)

# SHA-256 of repr(L.lower_text(text)), of repr(M.generate_mutants(lts,
# M.SUPPORTED_OPERATORS)) and of repr(P.parse_text(text)) per program,
# captured from the frozen dataclasses these records replace; the mutants'
# digests were re-pinned when `Mutant` lost its `removed` field, each to the
# digest of the earlier repr with `removed=...` left out
REPR_DIGESTS = {
    "bench/programs/classify.mimp": (
        "1dd7b0b18df0b5f93674b41f136d850f594187bf2d2d7295911bb6f91c5754a3",
        "2dc084e1c658f9139cf4586145ce0c4c89de683db6ba96b421c2542a40f1a246",
        "b68ee0c3f6687625ef267e1e856d8f82be6a57eaf181be6f2d7ed2b25c47256f"),
    "bench/programs/divmod.mimp": (
        "f2056cc949f062b27d02a31cf678aa236968f3668cf2304c11133e854d3afd7b",
        "1b743e523d23ea5c09a2ac2421444872f1b6c98a767676a4b3d4afe645cf670b",
        "8a1ebbf6539805cb7cbab26dc8c260b1acc97f3c585ab3c662f253151937b1e1"),
    "bench/programs/linear.mimp": (
        "f3f9c17bd6eafc6b25024f4ea02567966e7e74263ebebc56f0ba3a2abf088628",
        "8f461503814e6c7f4a9490c6b3e2f6ae0bb6dce51552455581a36de36a3036ce",
        "bb97de77fa4b949e778f4a6b98cf4edb2a9abd12c45ed20b9dc10552d26a77ce"),
    "bench/programs/max2.mimp": (
        "ec4f5194ce148113baaccc34c88d5f017ee4ca6c92090f2aabb0184ab877ad31",
        "c55f3f022554683d50a10ef14f90ecb72c36bea7b7d934757816d5f5d6a82145",
        "b7fb6af8c7af5632c9c38bbd9e20244f3411b0bf5fadc67287149482ff03d7c4"),
    "corpus/abs.mimp": (
        "114ef3e0a720e61ba5b8df17679b9d44f9bb956b0dd6d6f64b7fe07cdcfcf38a",
        "847abe67945ce30ae9ae25b594c7b8c8b69cb67198a863f3a62663f68e0b1209",
        "8397b6f718a561b4369b516ee379de8fad06a71592b6cd6666761ca1e62fbf43"),
    "corpus/callfn.mimp": (
        "2ed7e7cf81190ddf09559fb43cc8f906480c9c810c12de4a36209309dc3d6e1d",
        "ec065c692e8c1736b0cb1faec920bd39ed40321804fd6f3a200175ffcc79db47",
        "586013db370ed39c8ca4b458caf2f78aeced012fcff33287e8a532fdfa39df2d"),
    "corpus/clamp.mimp": (
        "6d36a606efeb1007937824c80d41fb2309ec305f786b1e3e4b49d5a3f4458396",
        "1aaa437cfd9b0fbd810cffd9250ed936ff6ead8ac873bc52cc0ad239cd091de0",
        "a7300ab67ea6880739e9b991e56ad6643fbda93e1cde7eb063eef5a12f0f085c"),
    "corpus/classify.mimp": (
        "c1b05359a04bd1a39debe13c4999e5db4db593f4d9eeb25df9bdaa9c5f47b40f",
        "d938ef9f0b7bda09a7400fba4cdde71a2d16d29de5f9fa0e0ddc081b7d5b5f32",
        "20a8d1fde1ecbff48a4585d708ac83957816560f7e3e8aa2276d088cb987eb23"),
    "corpus/countdown.mimp": (
        "2cd3a17f5f418c1eaeffc2d1d72d8ff66922451c396057ac3f4f32b560ab5e17",
        "48f962ee34ffe8afecbb700c67f676ad7aaa6b13a0b239728e15c4540364608d",
        "5aaf43e4e68753848a9b773f6f1b5c5ec5bcf08604a192627215cb75fa899c8e"),
    "corpus/divmod.mimp": (
        "dcfebff8ed6cf985b4f2e2233cd11fcfc84f0eefa43360c3da8a31d194175773",
        "1b743e523d23ea5c09a2ac2421444872f1b6c98a767676a4b3d4afe645cf670b",
        "7b7dab9b652c73fae51075afb2662bea5d8dcaac17ea0154c61034a623601408"),
    "corpus/fig1.mimp": (
        "75dacdb1b63570869681498f6721bb2bb404205618b737aa73fabf6aef018dd0",
        "d4d7a83eb1ad073f3fd79e3150f05a30be24369d086fe9f61708a6a1d71097ee",
        "121f004f1acff409025a62a424de8fb93cf8843bc1d67053912f399e491a8bca"),
    "corpus/mask.mimp": (
        "1f4f8015569a88ef65555df4bca129533b4b623f5b5ab06267c5fd85e2404bfd",
        "28b326a66b26cc34a4f246861fe1454a8c837987c4c453784a8a731ea108bbb0",
        "5ad46a656774ba49df38cfc3c7a1a3b906cbf1ff1773cb242323ddcd17ec9e8b"),
    "corpus/max2.mimp": (
        "a279532b3905ce6c4770fc97a53ef0e6261104f25daa1f0459306a36e0b2e498",
        "48ed3852fd2991c282b6200fa13831a67462f6baf48c1ea197ec3f1197c27a56",
        "348c921e9f8626e1408f92f33a62452a45357d3becceb201897cc3ac95e322d0"),
    "corpus/parity.mimp": (
        "bde236de1af227b7e85d8536748ce8a81a89afc56538ac709e9eefbe4b68fa32",
        "4c0f4c366424fe51d13aa6e9635dcb077648644640a5b2c659ad77c97e2329da",
        "e4ba60c7e6797412af92bda51010a322eb42336a4f86ae1ce9e3a23c8b20ff39"),
    "corpus/poly.mimp": (
        "fd30ac2432621dfa71bc4ce646e546b3557a2bc5efcf782551dcf8d8f57ffa68",
        "8b4ca63fc323f22135a144d4e42ef9cc871c79e0f9cceed1171755eed96d491e",
        "d61d562cea18289a88f1f14216afeacd6036713badf2941df5a77d5cf4b0187d"),
    "corpus/sign.mimp": (
        "39e6049fad03439cead6d8095dea62496da44bfe02e2760843b5b99f8ba145f4",
        "bdf1143e8212be00b53f85ba7f081947c59521823cf6c11ced34e70ba188c9ba",
        "8a1ee7264de1cde410eebf69061f1821251b9573f9bc1b5e8710ac9f5222b3d4"),
    "corpus/sumloop.mimp": (
        "09d32a7decd4d2855faddbf5737f1b87dc8c7753fe66059a20fedb2c1de1d410",
        "075fd5b1e6790c2bcf700b1f7a7f1427297959847de3bad62f9623fb1ea976c0",
        "2e41be5ba248dd6606ad621503938907b3db5ff804798b8a1775120f211a0e0d"),
    "tests/logic.mimp": (
        "a9e8bb05f74f099e881224952bd698f19ace7e4383a4a9ceeb1f147257325fde",
        "fda9f06b51e99fb39c72f4447634a4c9e4357ddf5162073b6f80204e0da02e10",
        "a0b29d68bbeb37aa12128a557a50889107530b616333cd6667e2942749826ec8"),
}

CONFIG_REPR = ("Config(pl='GMD2MS', cw=0, pp=0.25, pss='RND', mpd=2, nsd=False, ntpm=5, "
               "mode='semu', budget_seconds=60.0, max_states=None, max_depth=200, "
               "rng_seed=0, use_precondition=True)")
MANIFEST_REPR = (f"RunManifest(program='p', out_dir='o', seeds=None, config={CONFIG_REPR}, "
                 "operators=('AOR', 'CRP', 'LCR', 'RHS', 'ROR', 'SDL'), step_budget=100000)")


def _sha(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()


def repr_digests(path: str) -> tuple:
    """The digests of the LTS, the mutants and the AST of the program at
    `path`, relative to the repository's root."""
    with open(os.path.join(ROOT, path), encoding="utf-8") as f:
        text = f.read()
    lts = L.lower_text(text)
    mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
    return _sha(lts), _sha(mutants), _sha(P.parse_text(text))


@pytest.mark.parametrize("path", sorted(REPR_DIGESTS))
def test_reprs_are_the_dataclass_ones(path):
    assert sorted(os.path.relpath(p, ROOT) for p in C.every_program()) == sorted(REPR_DIGESTS)
    assert repr_digests(path) == REPR_DIGESTS[path]


def test_defaults_print_as_before():
    assert repr(X.Config()) == CONFIG_REPR
    assert repr(cli.RunManifest("p", "o")) == MANIFEST_REPR


# one record of every class, and a field to replace with another value
x = Var("x")
GC = L.GuardedCommand(Cmp("<", x, Lit(0)), (("y", x),), None)
LTS = L.lower_text("input x: int in [-2, 2];\nfn main() { output x; }")
MUTANT = M.Mutant(1, "CRP:0->1", 1, (4, 3), "0", "1", ())
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
    (X.Config(), "pp", 1.0),
    (X.initial_state(LTS), "trail", (0,)),
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

    def test_pickle_and_copy_round_trip(self, rec, field, value):
        for r in (rec, rec.replace(**{field: value})):
            for twin in (pickle.loads(pickle.dumps(r)), copy.copy(r), copy.deepcopy(r)):
                assert type(twin) is type(r) and twin == r and repr(twin) == repr(r)


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

    def test_replace_names_only_fields(self):
        state = X.initial_state(LTS)
        with pytest.raises(TypeError, match="takes the fields"):
            state.replace(trail=(0,), no_such_field=1)
        with pytest.raises(TypeError, match="takes the fields"):
            LTS.replace(entry=2, no_such_field=1)
        with pytest.raises(TypeError, match="misses the field"):
            X.SymbolicState(T.TRUE)

    def test_replace_checks_and_interns_through_the_constructor(self):
        with pytest.raises(ValueError, match="PP"):
            X.Config().replace(pp=2.0)
        with pytest.raises(ValueError, match="MAX_STATES"):
            X.Config().replace(max_states=-5)
        with pytest.raises(ValueError, match="empty"):
            P.SourceProgram("fn main() { }").replace(text="")
        t = Cmp("<", x, Lit(0))
        assert t.replace(op=">=") is Cmp(">=", x, Lit(0))

    def test_replace_leaves_the_cached_properties_behind(self):
        lts = LTS.replace()
        assert lts.successors[lts.entry]
        emptied = lts.replace(transitions=())
        assert "successors" not in vars(emptied)
        assert emptied.successors == {loc: [] for loc in LTS.locations}
        assert lts.successors == LTS.successors

    def test_exploration_stats_are_mutable_and_own_their_containers(self):
        a, b = X.ExplorationStats(), X.ExplorationStats()
        a.states_created += 1
        a.tests_per_mutant[1] = 2
        a.checkpoint_events.append((1, 2, 3))
        assert (b.states_created, b.tests_per_mutant, b.checkpoint_events) == (0, {}, [])

    def test_repr_takes_one_frame_per_level(self):
        depths = []

        class Leaf:
            def __repr__(self):
                depths.append(len(_frames()))
                return "leaf"

        class Wrap(record.Record):
            __slots__ = ("operand",)

        leaf = Leaf()
        for n in (10, 30):
            t = leaf
            for _ in range(n):
                t = Wrap(t)
            assert repr(t) == f"{Wrap.__qualname__}(operand=" * n + "leaf" + ")" * n
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


if __name__ == "__main__":
    print("REPR_DIGESTS = {")
    for path in sorted(os.path.relpath(p, ROOT) for p in C.every_program()):
        print(f'    "{path}": (')
        print(",\n".join(f'        "{d}"' for d in repr_digests(path)) + "),")
    print("}")
