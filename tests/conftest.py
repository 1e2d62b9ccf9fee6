import functools
import os
import sys

import pytest

from mutkill import lts as L
from mutkill import mutation as M
from mutkill import parser as P
from mutkill import solver as S

CORPUS = os.path.join(os.path.dirname(__file__), os.pardir, "corpus")
STUB = os.path.join(os.path.dirname(__file__), "smt_stub.py")

# a branch whose guard divides by zero at y = 1, where none of its mutants
# that change `y - 1` does
DIVIDING_BRANCH = ("input x: int in [-2,2];\ninput y: int in [-2,2];\n"
                   "fn main() { if (x / (y - 1) > 0) { output 1; } else { output 2; } }")

LOOPFREE = ["abs", "max2", "clamp", "sign", "parity", "mask", "classify",
            "poly", "divmod"]
ALL_PROGRAMS = LOOPFREE + ["fig1", "sumloop", "countdown", "callfn"]


def corpus_path(name: str) -> str:
    return os.path.join(CORPUS, f"{name}.mimp")


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


def external_handle(lts: L.Lts) -> S.SolverHandle:
    return S.SolverHandle.external(lts.input_domains, (sys.executable, STUB))


@pytest.fixture
def fig1():
    return build("fig1")


def fig1_mutant(mutants, loc: int, operator: str) -> M.Mutant:
    found = [m for m in mutants if m.loc == loc and m.operator == operator]
    assert len(found) == 1, f"expected one {operator} mutant at {loc}"
    return found[0]


def golden_m1(mutants) -> M.Mutant:
    # the decrement-by-2 mutant of the loop counter update
    return fig1_mutant(mutants, 7, "CRP:1->2")


def golden_m2(mutants) -> M.Mutant:
    # the off-by-one mutant of the negative-side assignment
    return fig1_mutant(mutants, 8, "RHS:x->x + 1")
