"""Every finished symbolic state agrees with replay.

This is DART's divergence check (Godefroid, Klarlund & Sen, PLDI 2005): a
model of a finished state's path, replayed on the state's program, must
take the state's route and end as the state does.  A terminal state's
symbolic outputs, evaluated at the model, must be replay's outputs.  A
concrete run that leaves the predicted route exposes an unsound symbolic
step.

Run as a script with `src` on `PYTHONPATH`, `python tests/test_divergence.py
SEED N` checks N programs of `test_generated`'s generator, drawn from
`random.Random(SEED)`, and prints each divergent state, its program, and
their numbers.
"""

import math
import os
import random
import sys

import pytest
from hypothesis import given

from mutkill import interp as I
from mutkill import solver as S
from mutkill import symex as X

import conftest as C
import test_generated as G

CONFIG = X.Config(pp=1.0, max_states=200000, budget_seconds=math.inf, max_depth=60)

# replay short-circuits past `1 / x` where x == 0, so that divisor's error
# path requires x != 0
SHORT_CIRCUIT = ("input x: int in [-2, 2];\n"
                 "fn main() { if (x == 0 || 1 / x > 0) { output 1; } else { output 2; } }")


def divergence(meta, s):
    """How replaying a model of the finished state `s` departs from it, or
    None.  The model is the solver's first one of the state's path, with
    the other inputs at their low bounds."""
    prog = meta.program(s.mut_id)
    res = S.is_satisfiable(s.path, prog.inputs)
    if not res.is_sat:
        return "its path is unsat"
    model = {name: lo for name, (lo, _) in prog.inputs}
    model.update(res.model)
    # an error state's last transition is the one whose evaluation errs:
    # replay stops at its source
    route = [prog.entry]
    for i in s.trail[:-1] if s.status == "error" else s.trail:
        route.append(prog.successors[route[-1]][i][2])
    trace = I.run_lts(prog, model, record_states=True)
    replayed = [loc for _, loc in trace.states]
    if (trace.status, replayed) != (s.status, route):
        return f"at {model} replay is {trace.status} via {replayed}, the state {s.status} via {route}"
    if s.status == "terminal":
        outputs = tuple(C.eval_int(t, model) for t in s.out)
        if outputs != trace.output:
            return f"at {model} replay outputs {trace.output}, the state {outputs}"
    return None


def divergent_states(text: str) -> list:
    """(state, how it diverges) for the finished states of semu's
    exploration of `text` that replay does not follow."""
    _, tce, meta = G.build(text)
    engine = X._Engine(meta, tce.kept(), [], CONFIG)
    engine.run()
    found = [(s, divergence(meta, s)) for s in engine.finished_orig + engine.finished_mut]
    return [(s, why) for s, why in found if why is not None]


@pytest.mark.parametrize("path", C.every_program(), ids=os.path.basename)
def test_every_finished_state_agrees_with_replay(path):
    with open(path, encoding="utf-8") as f:
        assert divergent_states(f.read()) == []


def test_short_circuited_divisor_agrees_with_replay():
    assert divergent_states(SHORT_CIRCUIT) == []


@given(G.programs())
@G.gate
def test_generated_programs_agree_with_replay(text):
    assert divergent_states(text) == [], text


if __name__ == "__main__":
    seed, n = (int(a) for a in sys.argv[1:3])
    rng = random.Random(seed)
    states = programs = 0
    for k in range(n):
        text = G.program(rng)
        found = divergent_states(text)
        if found:
            states += len(found)
            programs += 1
            print(f"program {k}:\n{text}")
            for s, why in found:
                print(f"  mutant {s.mut_id}, {s.status}, trail {s.trail}: {why}")
    print(f"seed {seed}: {states} divergent states in {programs} of {n} programs")
