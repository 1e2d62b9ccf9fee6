import functools
import glob
import os

import pytest

from mutkill import lts as L
from mutkill import mutation as M
from mutkill import parser as P
from mutkill import solver as S
from mutkill import symex as X

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
BENCH_PROGRAMS = os.path.join(os.path.dirname(__file__), os.pardir, "bench", "programs")
# `&&`, `||` and `!`, which no corpus or benchmark program uses
LOGIC = os.path.join(os.path.dirname(__file__), "logic.mimp")

# a branch whose guard divides by zero at y = 1, where none of its mutants
# that change `y - 1` does
DIVIDING_BRANCH = ("input x: int in [-2,2];\ninput y: int in [-2,2];\n"
                   "fn main() { if (x / (y - 1) > 0) { output 1; } else { output 2; } }")

LOOPFREE = ["abs", "max2", "clamp", "sign", "parity", "mask", "classify",
            "poly", "divmod"]
ALL_PROGRAMS = LOOPFREE + ["fig1", "sumloop", "countdown", "callfn"]


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, f"{name}.mimp")


def every_program():
    """Paths of the corpus and benchmark programs, and of LOGIC."""
    return sorted(glob.glob(os.path.join(CORPUS, "*.mimp"))
                  + glob.glob(os.path.join(BENCH_PROGRAMS, "*.mimp")) + [LOGIC])


@functools.lru_cache(maxsize=None)
def load_lts(name: str) -> L.Lts:
    with open(corpus_path(name), encoding="utf-8") as f:
        return L.lower_to_lts(P.parse_text(f.read(), origin=name))


@functools.lru_cache(maxsize=None)
def build(name: str):
    """(lts, mutants, tce report, meta mutant) for one corpus program."""
    lts = load_lts(name)
    mutants = M.generate_mutants(lts, M.SUPPORTED_OPERATORS)
    tce = M.tce_filter(lts, mutants)
    meta = M.build_meta_mutant(lts, mutants)
    return lts, mutants, tce, meta


def bounded_handle(lts: L.Lts) -> S.SolverHandle:
    return S.SolverHandle.bounded(lts.input_domains)


@pytest.fixture
def fig1():
    return build("fig1")


def fig1_mutant(mutants, loc: int, operator: str) -> M.Mutant:
    found = [m for m in mutants if m.loc == loc and m.operator == operator]
    assert len(found) == 1, f"expected one {operator} mutant at {loc}"
    return found[0]


def enumerate_terminals(meta: M.MetaMutant, mut_id: int, max_depth: int,
                        through=None):
    """All terminal states up to max_depth, with NO feasibility pruning
    beyond guards that are the literal `false`: the oracle of exhaustive
    path analyses.  `through` restricts to paths visiting that location."""
    lts = meta.program(mut_id)
    succ = lts.successors
    frontier = [(X.initial_state(lts, mut_id), through in (None, lts.entry))]
    done = []
    while frontier:
        nxt = []
        for s, visited in frontier:
            if s.loc in lts.terminals:
                if visited:
                    done.append(s.replace(status="terminal"))
                continue
            if s.depth >= max_depth:
                continue
            for i, transition in enumerate(succ[s.loc]):
                stepped = X.step(s, i, transition)
                if stepped is not None:
                    nxt.append((stepped[0], visited or transition[2] == through))
        frontier = nxt
    return done


def golden_m1(mutants) -> M.Mutant:
    # the decrement-by-2 mutant of the loop counter update
    return fig1_mutant(mutants, 7, "CRP:1->2")


def golden_m2(mutants) -> M.Mutant:
    # the off-by-one mutant of the negative-side assignment
    return fig1_mutant(mutants, 8, "RHS:x->x + 1")
