"""What the benchmark's tracer (`bench/tracing.py`) reads from the program.

The tracer wraps functions by module and name and reads fields of their
results; one that the program no longer has is reported as absent and its
per-layer metric reads as zero.  These tests pin the names and the fields,
so that a rename fails here first.
"""

import importlib.util
import os

import pytest

from mutkill import cli, interp, lts, mutation, parser, solver, symex, terms
from mutkill.terms import And, Cmp, Lit, Var

import conftest as C

_SPEC = importlib.util.spec_from_file_location(
    "bench_tracing", os.path.join(os.path.dirname(__file__), os.pardir, "bench", "tracing.py"))
tracing = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(tracing)

MODULES = {"cli": cli, "interp": interp, "lts": lts, "mutation": mutation,
           "parser": parser, "solver": solver, "symex": symex, "terms": terms}


@pytest.mark.parametrize("module, name", [(m, n) for m, n, _, _ in tracing.WRAPPED],
                         ids=[f"{m}.{n}" for m, n, _, _ in tracing.WRAPPED])
def test_every_wrapped_function_exists(module, name):
    assert callable(getattr(MODULES[module], name, None))


def test_a_query_result_reads_sat_or_unsat():
    # the hook counts `solver.{res.status}`
    h = (("x", (-8, 7)),)
    below = Cmp("<", Var("x"), Lit(0))
    results = [solver.is_satisfiable(c, h) for c in (below, And((below, Cmp(">", Var("x"), Lit(0)))))]
    assert [r.status for r in results] == ["sat", "unsat"]
    assert {f"solver.{r.status}" for r in results} <= set(tracing.COUNTED)


def test_a_replay_trace_reads_steps_and_status():
    # the hook adds `trace.steps` and counts `trace.status == "timeout"`
    program = C.load_lts("countdown")
    done = interp.run_lts(program, {"x": 4})
    cut = interp.run_lts(program, {"x": 12}, step_budget=3)
    assert isinstance(done.steps, int) and done.steps > 3
    assert (done.status, cut.status, cut.steps) == (interp.OK, "timeout", 3)
