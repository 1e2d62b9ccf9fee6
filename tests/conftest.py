import functools
import glob
import os
from collections import deque

import pytest

from mutkill import lts as L
from mutkill import mutation as M
from mutkill import parser as P
from mutkill import symex as X
from mutkill import terms as T

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


def eval_int(t, env) -> int:
    """The value of the integer term t at env, by the operators' meaning
    applied recursively: the reference semantics.  Raises T.EvalError on
    division or modulo by zero and KeyError on an unbound variable."""
    if isinstance(t, T.Lit):
        return t.value
    if isinstance(t, T.Var):
        return env[t.name]
    if isinstance(t, T.Neg):
        return -eval_int(t.operand, env)
    if isinstance(t, T.Bin):
        return T.ARITH[t.op](eval_int(t.left, env), eval_int(t.right, env))
    raise TypeError(f"not an integer term: {t!r}")


def eval_bool(t, env) -> bool:
    """The truth of the boolean term t at env, as `eval_int`; `&&` and `||`
    short-circuit, and errors propagate."""
    if isinstance(t, T.BoolLit):
        return t.value
    if isinstance(t, T.Cmp):
        return T.COMPARE[t.op](eval_int(t.left, env), eval_int(t.right, env))
    if isinstance(t, T.Not):
        return not eval_bool(t.operand, env)
    if isinstance(t, T.And):
        return all(eval_bool(x, env) for x in t.items)
    if isinstance(t, T.Or):
        return any(eval_bool(x, env) for x in t.items)
    raise TypeError(f"not a boolean term: {t!r}")


def meaning(c, env) -> bool:
    """Whether the constraint c holds at env, by the recursive reference
    semantics `eval_bool`, a comparison counted false where it divides by
    zero: the oracle of `T.holds` and of the solver, which share no code
    with it."""
    if isinstance(c, T.Not):
        return not meaning(c.operand, env)
    if isinstance(c, T.And):
        return all(meaning(item, env) for item in c.items)
    if isinstance(c, T.Or):
        return any(meaning(item, env) for item in c.items)
    try:
        return eval_bool(c, env)
    except T.EvalError:
        return False


class LtsInvariantError(Exception):
    pass


def validate_lts(lts: L.Lts) -> None:
    """Check the structural invariants of a lowered program; raises
    LtsInvariantError."""
    locset = set(lts.locations)
    if lts.entry not in locset:
        raise LtsInvariantError("entry location missing")
    if not lts.terminals <= locset:
        raise LtsInvariantError("terminal location missing")
    succ = lts.successors
    varset = set(lts.variables)
    # reachability from entry
    seen = {lts.entry}
    queue = deque([lts.entry])
    while queue:
        loc = queue.popleft()
        for _, _, dst in succ[loc]:
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    if seen != locset:
        raise LtsInvariantError(f"unreachable locations: {sorted(locset - seen)}")
    for loc in lts.locations:
        outs = succ[loc]
        if loc in lts.terminals:
            if outs:
                raise LtsInvariantError(f"terminal {loc} has outgoing transitions")
            continue
        # the shape that the engine and replay rely on: a branch tests one
        # guard and goes to one of two arms, any other location steps
        if lts.info(loc).kind == "branch":
            if len(outs) != 2 or outs[1][1].guard is not T.negate(outs[0][1].guard):
                raise LtsInvariantError(f"branch {loc} is not two complementary arms")
            if any(gc.update or gc.emit is not None for _, gc, _ in outs):
                raise LtsInvariantError(f"an arm of branch {loc} updates or emits")
        elif len(outs) != 1 or outs[0][1].guard is not T.TRUE:
            raise LtsInvariantError(f"location {loc} is not one transition guarded by true")
        for _, gc, dst in outs:
            if dst not in locset:
                raise LtsInvariantError(f"transition target {dst} not a location")
            used = T.variables(gc.guard)
            for name, term in gc.update:
                used |= {name} | T.variables(term)
            if gc.emit is not None:
                used |= T.variables(gc.emit)
            if not used <= varset:
                raise LtsInvariantError(f"unknown variables at {loc}: {sorted(used - varset)}")
            names = [name for name, _ in gc.update]
            if len(names) != len(set(names)):
                raise LtsInvariantError(f"double assignment at {loc}")


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


@pytest.fixture
def fig1():
    return build("fig1")


def fig1_mutant(mutants, loc: int, operator: str) -> M.Mutant:
    found = [m for m in mutants if m.loc == loc and m.operator == operator]
    assert len(found) == 1, f"expected one {operator} mutant at {loc}"
    return found[0]


def enumerate_terminals(meta: M.MetaMutant, mut_id: int, max_depth: int,
                        through=None):
    """All terminal states up to max_depth, with NO feasibility pruning:
    the oracle of exhaustive path analyses.  `through` restricts to paths
    visiting that location."""
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
                nxt.append((X.step(s, i, transition)[0], visited or transition[2] == through))
        frontier = nxt
    return done


def golden_m1(mutants) -> M.Mutant:
    # the decrement-by-2 mutant of the loop counter update
    return fig1_mutant(mutants, 7, "CRP:1->2")


def golden_m2(mutants) -> M.Mutant:
    # the off-by-one mutant of the negative-side assignment
    return fig1_mutant(mutants, 8, "RHS:x->x + 1")
