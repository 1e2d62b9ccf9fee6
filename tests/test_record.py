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
# captured from the frozen dataclasses these records replace; the LTS and
# mutant digests were re-pinned when the LTS came to store one move per
# location (`Lts.moves`, a mutant's `replacement` one move)
REPR_DIGESTS = {
    "bench/programs/classify.mimp": (
        "9349de8fd9ab63e0f942459d4aef190c36d362dd83e2e1e189bdd2d4b203a3a7",
        "f9e57ecc79766d09d5d78b139855710f9fa551b45bb7c93e5f9122a9d0c052bf",
        "b68ee0c3f6687625ef267e1e856d8f82be6a57eaf181be6f2d7ed2b25c47256f"),
    "bench/programs/divmod.mimp": (
        "b32cf3a6d94d889a04a14ee0d9b8784fef95726625f7078370f00d76f26a7f16",
        "18c1673eea0b2573ffdd3870af9979aaad6dc0e6fc71ee14532d1732d3c4c81a",
        "8a1ebbf6539805cb7cbab26dc8c260b1acc97f3c585ab3c662f253151937b1e1"),
    "bench/programs/linear.mimp": (
        "c33c6ee8b80b4308b98daa01c4b7ce616fcd8397dabb9710a3f7c1986685e10f",
        "1c2c56da9429907981c39eaa4dc3d9ba3fda23953c87c6195edf8b36d664dcd7",
        "bb97de77fa4b949e778f4a6b98cf4edb2a9abd12c45ed20b9dc10552d26a77ce"),
    "bench/programs/max2.mimp": (
        "97a925bb07b21bc4ae651801e084f542552d6a7ef9d56271d207418d6b81b57e",
        "3ca1cada6027037d859ca63d565e61649039d5205b939076279298da3f21e4e8",
        "b7fb6af8c7af5632c9c38bbd9e20244f3411b0bf5fadc67287149482ff03d7c4"),
    "corpus/abs.mimp": (
        "4af4f27025974b969cacef8c8917aaa3164d3545ae69b60419ab2c6618080b76",
        "05f2e28508004fc51fa6fa6b93f2353bc8db18c3a1c927223f2905a75cd1609d",
        "8397b6f718a561b4369b516ee379de8fad06a71592b6cd6666761ca1e62fbf43"),
    "corpus/callfn.mimp": (
        "2e46a5b431ceef4790e216b4a23cd8a3cb10a1f3b4c47247c7a474abd90934aa",
        "9717a90e6230cf617fe1a3cc82abc22421065f847dee747f46111acfb192ef6e",
        "586013db370ed39c8ca4b458caf2f78aeced012fcff33287e8a532fdfa39df2d"),
    "corpus/clamp.mimp": (
        "0e7ea6d123ce076eac0296f5db60439714e93444a2db07da9faf5841d3c23a8c",
        "a9d00a0cb4cdd4988e3ede0602bfedf34efc528e1950f54885a86818c63a0b34",
        "a7300ab67ea6880739e9b991e56ad6643fbda93e1cde7eb063eef5a12f0f085c"),
    "corpus/classify.mimp": (
        "93d6d2a16bd0f5386d93b8ecf992a7811d043a945564bd69760ca22a553d0579",
        "3df0d1168150db34cf8f84c8d195be6d796c8619dc7312155c043753c87c4637",
        "20a8d1fde1ecbff48a4585d708ac83957816560f7e3e8aa2276d088cb987eb23"),
    "corpus/countdown.mimp": (
        "94102253fc17e43ac36656e0a6214b3318956ab598aa204dc546f073552f5c60",
        "7277724b240247ead1706fb2a78be664b510bbf09df6eeb483e69ba1d14c8fb0",
        "5aaf43e4e68753848a9b773f6f1b5c5ec5bcf08604a192627215cb75fa899c8e"),
    "corpus/divmod.mimp": (
        "1ca9a2b648e629df0b9b7b0387ad64a0ad9fc2fa6e803c0fdf706dabd1189d50",
        "18c1673eea0b2573ffdd3870af9979aaad6dc0e6fc71ee14532d1732d3c4c81a",
        "7b7dab9b652c73fae51075afb2662bea5d8dcaac17ea0154c61034a623601408"),
    "corpus/fig1.mimp": (
        "6b8946961db29dbe67e32e1be5b479b6c3ce5a567d7af7491507320d231f9216",
        "b93b8af2bfb30586907b6c08a13fff70dcae8a5d386f1eb21a70cfe5c57b3ca3",
        "121f004f1acff409025a62a424de8fb93cf8843bc1d67053912f399e491a8bca"),
    "corpus/mask.mimp": (
        "ed303e475a81026972a4c96bb5f9d5271fa9c686d9ae204a8bcd3c17c3fbeaed",
        "bd46dc6e46a5a9401d696dc1c6eb6b7eb05a1cbbe42af80c80e70973a8b6d2e5",
        "5ad46a656774ba49df38cfc3c7a1a3b906cbf1ff1773cb242323ddcd17ec9e8b"),
    "corpus/max2.mimp": (
        "4def63061ae16b7c29777f077cbf4b24f32e3f5b4476908792bd6b33230c88cf",
        "71b397ee8395c9ee7cf2723bcb0a8cacd287043e7a936e2087824168c01cfa3a",
        "348c921e9f8626e1408f92f33a62452a45357d3becceb201897cc3ac95e322d0"),
    "corpus/parity.mimp": (
        "9a794cde29d69315b23a49d7a979814081c1c430b880558b072988bb1dd38f4a",
        "26749a6e0c705ee8308b93f2b1c19845f05512b2808baf32b90f356d8cf0c169",
        "e4ba60c7e6797412af92bda51010a322eb42336a4f86ae1ce9e3a23c8b20ff39"),
    "corpus/poly.mimp": (
        "d96dcbe8982344771e4e86381e6a0458f8bc72a76a2e19ace865f74eab9f6158",
        "c306ab691a1ca06ff2ac0102cfe37b1d3691ee2d106651ddc38b757f22d20987",
        "d61d562cea18289a88f1f14216afeacd6036713badf2941df5a77d5cf4b0187d"),
    "corpus/sign.mimp": (
        "0012cb372aedef960a0f020fa5b556e1a49236ece2bd2acd8c945c88c087458c",
        "f784ade345e47ce95e6a8c3dcafab650d760a4860f05270542ee53b28f49df9e",
        "8a1ee7264de1cde410eebf69061f1821251b9573f9bc1b5e8710ac9f5222b3d4"),
    "corpus/sumloop.mimp": (
        "14ab8492d3658afb9e80e075ae1e97db329f0ccfc4f8447adc8d765fdb15cbbd",
        "dd177edea5e56a908b87ccda71fd307a53fe52ce29b52c0eda26988cbb3680b3",
        "2e41be5ba248dd6606ad621503938907b3db5ff804798b8a1775120f211a0e0d"),
    "tests/logic.mimp": (
        "db82a6d0a6cb2c8620ba7e49f979a5cc9dce49054c68a0968b7bab763d8efd00",
        "591f81486fbbe85b1b89de2d2489a0189327c0fc4c779e115da17c02535c58e8",
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
STEP = L.Step((("y", x),), None, 2)
LTS = L.lower_text("input x: int in [-2, 2];\nfn main() { output x; }")
MUTANT = M.Mutant(1, "CRP:0->1", 1, (4, 3), "0", "1", STEP)
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
    (STEP, "emit", x),
    (L.Branch(Cmp("<", x, Lit(0)), 2, 3), "els", 4),
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
        assert lts.move(lts.entry) and "_moves" in vars(lts)
        assert lts == LTS and hash(lts) == hash(LTS) and repr(lts) == repr(LTS)
        assert "_moves" not in vars(lts.replace(entry=2))
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
        assert lts.move(lts.entry)
        emptied = lts.replace(moves=())
        assert "_moves" not in vars(emptied)
        with pytest.raises(KeyError):
            emptied.move(LTS.entry)
        assert lts.move(lts.entry) == LTS.move(LTS.entry)

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
