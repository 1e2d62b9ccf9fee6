"""Concrete interpretation of (meta-)programs and kill-matrix analyses.

A trace records the emitted output stream, the number of steps taken and a
status: `terminal` for normal exit, `error` for a runtime error (division or
modulo by zero), `timeout` when the step budget runs out.  On request it also
records every step's (valuation, location) couple.  Replay runs generated
Python: one function per program, or per meta-mutant (see "Replay kernel").

Output comparison is exact sequence equality plus status: an error differs
from every normal output; a one-sided timeout counts as a difference, but
two timeouts compare as survived because no difference was witnessed.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from . import terms as T
from .lts import Branch, Lts, Move
from .mutation import MetaMutant
from .record import Record

DEFAULT_STEP_BUDGET = 100_000

OK = "terminal"
ERROR = "error"
TIMEOUT = "timeout"


class DomainViolation(Exception):
    pass


class Trace(Record):
    """`names`: the program's variables, sorted; `states`: (values of
    `names`, location) per step, or None when not recorded; `status`:
    terminal | error | timeout."""

    __slots__ = ("names", "states", "output", "status", "steps")

    def outcome(self) -> tuple:
        """Comparison key for kill decisions."""
        if self.status == TIMEOUT:
            return (TIMEOUT,)
        return (self.status, self.output)


def _check_domains(lts: Lts, test: Dict[str, int]) -> None:
    for name, (lo, hi) in lts.inputs:
        if name not in test:
            raise DomainViolation(f"missing input {name!r}")
        if not lo <= test[name] <= hi:
            raise DomainViolation(f"{name}={test[name]} outside [{lo}, {hi}]")
    if len(test) > len(lts.inputs):
        extra = set(test) - {name for name, _ in lts.inputs}
        raise DomainViolation(f"unknown inputs: {sorted(extra)}")


# ---------------------------------------------------------------------------
# Replay kernel
# ---------------------------------------------------------------------------
#
# Replay runs one generated Python function per program, or per meta-mutant
# as a mutant schema (Untch, Offutt & Harrold, ISSTA 1993), with the program
# variables as locals:
#
#     def run(mid, budget, states, test):
#         v0 = test['x']; v1 = 0; out = []; loc = 1; steps = 0
#         try:
#             while steps < budget:
#                 if loc < 3:               # balanced tree over locations
#                     if loc < 2:
#                         if mid in {4}:    # only at a mutation point
#                             <mutant 4's move at location 1>
#                         else:
#                             <the original's>
#                 ...
#                 steps += 1
#         except EvalError:
#             return 'error', out, steps + 1
#         return ('terminal' if loc in (9,) else 'timeout'), out, steps
#
# A location compiles its move (see `lts`).  A branch tests its guard once
# and compiles to `if <guard>: loc = 4` / `else: loc = 6`.  A step runs
# with no test: it evaluates its update terms, then its emit, then
# assigns, and with one update and no emit it assigns without a
# temporary: `v1 = (v1 + v0)` then `loc = 3`.  Compiling costs about 10 µs
# per generated line.  A terminal location returns `terminal`, also when it
# is reached at exactly the budget.  An `elif` chain would cost a test per location per step, and
# CPython's compiler recurses once per `elif`, so both the locations and a
# point's mutant IDs are told apart by a balanced tree of `<` tests.  The
# kill matrix compiles one schema over the mutants it replays, so the
# function grows with them, not with every mutant of the program, and it
# runs the schema once per distinct test: a repeated valuation copies the
# row of its first occurrence.

_INDENT = "    "


def _tree(var: str, keys: Sequence[int], leaf: Callable, pad: str) -> List[str]:
    """Lines that run `leaf(key, pad)` for the one of the sorted `keys` that
    `var` holds, chosen by a balanced tree of `<` tests."""
    if len(keys) == 1:
        return leaf(keys[0], pad)
    half = len(keys) // 2
    inner = pad + _INDENT
    return ([f"{pad}if {var} < {keys[half]}:"] + _tree(var, keys[:half], leaf, inner)
            + [f"{pad}else:"] + _tree(var, keys[half:], leaf, inner))


def _kernel(lts: Lts, points: Dict[int, List[Tuple[int, Move]]]
            ) -> Tuple[Tuple[str, ...], Callable]:
    """The sorted variable names of `lts` and `run(mid, budget, states, test)
    -> (status, output list, steps)`, in which `states`, a list or None,
    receives each step's values of those names and location.  At each
    location of `points` (location -> [(mutant ID, its move there)], IDs
    ascending) the mutant that `mid` selects makes its own move instead of
    the original's."""
    names = tuple(sorted(lts.variables))
    local = {n: f"v{i}" for i, n in enumerate(names)}
    src = T.Source(local)
    inputs = dict(lts.inputs)
    snapshot = "(" + "".join(f"{local[n]}, " for n in names) + ")"

    def block(move: Move, pad: str) -> List[str]:
        if isinstance(move, Branch):
            inner = pad + _INDENT
            return [f"{pad}if {src.expr(move.guard)}:", f"{inner}loc = {move.then}",
                    f"{pad}else:", f"{inner}loc = {move.els}"]
        if len(move.update) == 1 and move.emit is None:
            (name, term), = move.update
            return [f"{pad}{local[name]} = {src.expr(term)}", f"{pad}loc = {move.dst}"]
        lines = [f"{pad}_t{i} = {src.expr(term)}" for i, (_, term) in enumerate(move.update)]
        if move.emit is not None:
            lines.append(f"{pad}out.append({src.expr(move.emit)})")
        lines += [f"{pad}{local[name]} = _t{i}" for i, (name, _) in enumerate(move.update)]
        return lines + [f"{pad}loc = {move.dst}"]

    def location(loc: int, pad: str) -> List[str]:
        if loc in lts.terminals:
            return [f"{pad}return {OK!r}, out, steps"]
        variants = points.get(loc)
        if not variants:
            return block(lts.move(loc), pad)
        mutant = dict(variants)
        inner = pad + _INDENT
        return ([f"{pad}if mid in {set(mutant)!r}:"]
                + _tree("mid", list(mutant), lambda k, p: block(mutant[k], p), inner)
                + [f"{pad}else:"] + block(lts.move(loc), inner))

    loop = 2 * _INDENT
    body = [f"{local[n]} = test[{n!r}]" if n in inputs else f"{local[n]} = 0" for n in names]
    body += ["out = []", f"loc = {lts.entry}", "steps = 0",
             "if states is not None:", f"    states.append(({snapshot}, loc))",
             "try:", "    while steps < budget:"]
    body += _tree("loc", sorted(lts.locations), location, loop)
    body += [f"{loop}steps += 1",
             f"{loop}if states is not None:", f"{loop}    states.append(({snapshot}, loc))",
             "except EvalError:", f"    return {ERROR!r}, out, steps + 1",
             f"return ({OK!r} if loc in {tuple(sorted(lts.terminals))} else {TIMEOUT!r}), "
             "out, steps"]
    src.define("run(mid, budget, states, test)", body)
    return names, src.functions("<mutkill replay>")["run"]


def _bind(meta: MetaMutant, ids: Iterable[int]) -> None:
    """Compile one schema over those of `ids` (0 the original) whose programs
    have no kernel yet, and give each of those programs the schema with its
    ID bound: its cost is linear in the IDs it covers.  Unknown IDs are left
    to `run_concrete` to reject."""
    todo = sorted(k for k in set(ids) if (k == 0 or k in meta.mutants)
                  and "_run" not in vars(meta.program(k)))
    if not todo:
        return
    points: Dict[int, List[Tuple[int, Move]]] = {}
    for k in todo:
        if k:
            m = meta.mutants[k]
            points.setdefault(m.loc, []).append((k, m.replacement))
    names, run = _kernel(meta.base, points)
    for k in todo:
        vars(meta.program(k))["_run"] = names, functools.partial(run, k)


def run_lts(lts: Lts, test: Dict[str, int], step_budget: int = DEFAULT_STEP_BUDGET,
            record_states: bool = False) -> Trace:
    """Deterministic execution from the entry location.  Non-input variables
    start at 0.  The kernel is compiled on first use and kept in the Lts
    instance's dict: not a field, so equality and `replace` ignore it."""
    _check_domains(lts, test)
    kernel = vars(lts).get("_run")
    if kernel is None:
        names, run = _kernel(lts, {})
        kernel = vars(lts)["_run"] = names, functools.partial(run, 0)
    names, run = kernel
    states = [] if record_states else None
    status, output, steps = run(step_budget, states, test)
    return Trace(names, None if states is None else tuple(states), tuple(output), status, steps)


def run_concrete(meta: MetaMutant, mut_id: int, test: Dict[str, int],
                 step_budget: int = DEFAULT_STEP_BUDGET) -> Trace:
    """Execute the original (0) or one mutant of the meta-mutant: the
    program `meta.program(mut_id)`, run by the meta-mutant's schema."""
    if mut_id != 0 and mut_id not in meta.mutants:
        raise DomainViolation(f"unknown mutant id {mut_id}")
    prog = meta.program(mut_id)
    if "_run" not in vars(prog):
        _bind(meta, (mut_id,))
    return run_lts(prog, test, step_budget)


# ---------------------------------------------------------------------------
# Kill matrix
# ---------------------------------------------------------------------------


class KillMatrix(Record):
    """`tests`: ordered, each as sorted (name, value) pairs;
    `cells[test][mutant]`: K, S or T."""

    # no slots: the cached property below lives in the instance's dict
    _fields = ("tests", "mutant_ids", "cells")

    @functools.cached_property
    def columns(self) -> Dict[int, int]:
        """Each mutant ID's column: the first one that names it."""
        return {m: j for j, m in reversed(list(enumerate(self.mutant_ids)))}

    def killed(self, test_index: int, mutant_id: int) -> bool:
        return self.cells[test_index][self.columns[mutant_id]] == "K"

    def kill_set(self, mutant_id: int) -> frozenset:
        """Indices of tests killing the mutant."""
        j = self.columns[mutant_id]
        return frozenset(i for i in range(len(self.tests)) if self.cells[i][j] == "K")

    def killed_mutants(self) -> Set[int]:
        return {m for m in self.mutant_ids if self.kill_set(m)}


def outcome_cell(base: Trace, mutant: Trace) -> str:
    """The kill-matrix verdict of one mutant run against the original's run
    on the same test: K (killed), S (survived) or T (timed out)."""
    if mutant.status == TIMEOUT and base.status == TIMEOUT:
        return "T"
    # a one-sided timeout differs from every other outcome
    return "K" if mutant.outcome() != base.outcome() else "S"


def compute_kill_matrix(meta: MetaMutant, mutant_ids: Sequence[int],
                        tests: Sequence[Dict[str, int]],
                        step_budget: int = DEFAULT_STEP_BUDGET) -> KillMatrix:
    """One row per test, in order.  Runs are deterministic, so only the first
    test with a given valuation runs the original and the mutants; a later
    one gets a copy of its row.  An out-of-domain test or an unknown mutant
    ID raises DomainViolation at its first occurrence."""
    _bind(meta, (0, *mutant_ids))
    keys = tuple(tuple(sorted(t.items())) for t in tests)
    rows: Dict[tuple, Tuple[str, ...]] = {}
    for key, test in zip(keys, tests):
        if key not in rows:
            base = run_concrete(meta, 0, test, step_budget)
            rows[key] = tuple(outcome_cell(base, run_concrete(meta, m, test, step_budget))
                              for m in mutant_ids)
    return KillMatrix(tests=keys, mutant_ids=tuple(mutant_ids),
                      cells=tuple(rows[key] for key in keys))


def surviving_mutants(km: KillMatrix) -> Set[int]:
    return {m for m in km.mutant_ids if not km.kill_set(m)}


def greedy_minimize(km: KillMatrix) -> List[int]:
    """Greedy set cover: repeatedly take the test killing the most not-yet
    covered mutants, earlier test order breaking ties.  Returns test indices;
    the selected subset kills exactly the mutants the full suite kills."""
    kills_by_test = [{m for m, j in km.columns.items() if row[j] == "K"}
                     for row in km.cells]
    uncovered = set().union(*kills_by_test) if kills_by_test else set()
    chosen: List[int] = []
    while uncovered:
        best = max(range(len(km.tests)),
                   key=lambda i: (len(kills_by_test[i] & uncovered), -i))
        chosen.append(best)
        uncovered -= kills_by_test[best]
    return chosen


def subsuming_groups(km: KillMatrix) -> List[Tuple[int, ...]]:
    """Never-killed mutants dropped; mutants grouped by identical killed-test
    sets; a group is subsuming iff no other group's kill set is a strict
    subset of its own.  Groups are sorted by lowest member ID."""
    by_set: Dict[frozenset, List[int]] = {}
    for m in km.mutant_ids:
        ks = km.kill_set(m)
        if ks:
            by_set.setdefault(ks, []).append(m)
    groups = []
    for ks, members in by_set.items():
        if any(other < ks for other in by_set):
            continue
        groups.append(tuple(sorted(members)))
    return sorted(groups, key=lambda g: g[0])


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------


def all_inputs(lts: Lts) -> Iterable[Dict[str, int]]:
    names = [n for n, _ in lts.inputs]
    ranges = [range(lo, hi + 1) for _, (lo, hi) in lts.inputs]
    for values in itertools.product(*ranges):
        yield dict(zip(names, values))


def killable_mutants(meta: MetaMutant, mutant_ids: Sequence[int],
                     step_budget: int = DEFAULT_STEP_BUDGET) -> Set[int]:
    """Exhaustive-domain oracle: mutants for which some in-domain input
    produces an output difference."""
    _bind(meta, (0, *mutant_ids))
    alive = set(mutant_ids)
    killable: Set[int] = set()
    for test in all_inputs(meta.base):
        if not alive:
            break
        base = run_concrete(meta, 0, test, step_budget)
        for m in list(alive):
            if outcome_cell(base, run_concrete(meta, m, test, step_budget)) == "K":
                killable.add(m)
                alive.discard(m)
    return killable


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def format_valuation(test: Dict[str, int]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(test.items()))


def matrix_csv(km: KillMatrix) -> str:
    header = "test," + ",".join(str(m) for m in km.mutant_ids)
    lines = [header]
    for i, test in enumerate(km.tests):
        label = ";".join(f"{k}={v}" for k, v in test)
        lines.append(label + "," + ",".join(km.cells[i]))
    return "\n".join(lines) + "\n"
