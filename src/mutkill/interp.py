"""Concrete interpretation of (meta-)programs and kill-matrix analyses.

A trace records every (valuation, location) couple, the emitted output
stream, and a status: `terminal` for normal exit, `error` for a runtime
error (division or modulo by zero), `timeout` when the step budget runs out.

Output comparison is exact sequence equality plus status: an error differs
from every normal output; a one-sided timeout counts as a difference, but
two timeouts compare as survived because no difference was witnessed.
"""

from __future__ import annotations

import functools
import itertools
from typing import Callable, Dict, Iterable, List, Sequence, Set, Tuple

from . import terms as T
from .lts import GuardedCommand, Lts
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
    `names`, location) per step; `status`: terminal | error | timeout."""

    __slots__ = ("names", "states", "output", "status", "steps")

    @property
    def couples(self) -> Tuple[Tuple[Tuple[Tuple[str, int], ...], int], ...]:
        """Every (valuation, location) couple, the valuation as sorted
        (name, value) pairs."""
        return tuple((tuple(zip(self.names, values)), loc) for values, loc in self.states)

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
    extra = set(test) - {name for name, _ in lts.inputs}
    if extra:
        raise DomainViolation(f"unknown inputs: {sorted(extra)}")


# ---------------------------------------------------------------------------
# Compiled transitions
# ---------------------------------------------------------------------------
#
# Replay runs each transition as generated Python rather than walking its
# terms: a guard becomes `guard(e)` and the update and emit together
# `fire(e, out)`, both over the valuation dict `e`.


@functools.lru_cache(maxsize=1 << 12)
def compile_command(gc: GuardedCommand) -> Tuple[Callable, Callable]:
    """`(guard, fire)` for one transition label.  `guard(e)` is
    `T.eval_bool(gc.guard, e)`; `fire(e, out)` evaluates the update terms in
    order, then appends the emitted value to `out`, then assigns the updated
    variables of `e`.  Equal labels share one compiled pair."""
    src = T.Source()
    src.define("guard(e)", [f"return {src.expr(gc.guard)}"])
    body = [f"v{i} = {src.expr(term)}" for i, (_, term) in enumerate(gc.update)]
    if gc.emit is not None:
        body.append(f"out.append({src.expr(gc.emit)})")
    body += [f"e[{name!r}] = v{i}" for i, (name, _) in enumerate(gc.update)]
    src.define("fire(e, out)", body or ["pass"])
    scope = src.functions("<mutkill transition>")
    return scope["guard"], scope["fire"]


def _step_table(lts: Lts) -> Dict[int, List[tuple]]:
    """Location -> [(guard, fire, destination)] in transition order, built on
    first use and kept in the Lts instance's dict: not a field, so equality
    and `replace` ignore it."""
    table = vars(lts).get("_step_table")
    if table is None:
        table = vars(lts)["_step_table"] = {
            loc: [compile_command(gc) + (dst,) for _, gc, dst in outs]
            for loc, outs in lts.successors.items()}
    return table


def run_lts(lts: Lts, test: Dict[str, int],
            step_budget: int = DEFAULT_STEP_BUDGET) -> Trace:
    """Deterministic execution from the entry location.  Non-input variables
    start at 0."""
    _check_domains(lts, test)
    table = _step_table(lts)
    names = tuple(sorted(lts.variables))
    # the inputs are among the variables, so the dict keeps this key order
    # and its values() are the snapshot in `names` order
    env: Dict[str, int] = dict.fromkeys(names, 0)
    env.update(test)
    loc = lts.entry
    states = [(tuple(env.values()), loc)]
    output: List[int] = []
    steps = 0
    while loc not in lts.terminals:
        if steps >= step_budget:
            return Trace(names, tuple(states), tuple(output), TIMEOUT, steps)
        try:
            for guard, fire, dst in table[loc]:
                if guard(env):
                    break
            else:
                raise AssertionError(f"no enabled transition at location {loc}")
            fire(env, output)
        except T.EvalError:
            return Trace(names, tuple(states), tuple(output), ERROR, steps + 1)
        loc = dst
        steps += 1
        states.append((tuple(env.values()), loc))
    return Trace(names, tuple(states), tuple(output), OK, steps)


def run_concrete(meta: MetaMutant, mut_id: int, test: Dict[str, int],
                 step_budget: int = DEFAULT_STEP_BUDGET) -> Trace:
    """Execute the original (0) or one mutant of the meta-mutant: the
    program `meta.program(mut_id)`."""
    if mut_id != 0 and mut_id not in meta.mutants:
        raise DomainViolation(f"unknown mutant id {mut_id}")
    return run_lts(meta.program(mut_id), test, step_budget=step_budget)


# ---------------------------------------------------------------------------
# Kill matrix
# ---------------------------------------------------------------------------


class KillMatrix(Record):
    """`tests`: ordered, each as sorted (name, value) pairs;
    `cells[test][mutant]`: K, S or T."""

    __slots__ = ("tests", "mutant_ids", "cells")

    def killed(self, test_index: int, mutant_id: int) -> bool:
        return self.cells[test_index][self.mutant_ids.index(mutant_id)] == "K"

    def kill_set(self, mutant_id: int) -> frozenset:
        """Indices of tests killing the mutant."""
        j = self.mutant_ids.index(mutant_id)
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
    rows: List[Tuple[str, ...]] = []
    for test in tests:
        base = run_concrete(meta, 0, test, step_budget)
        rows.append(tuple(outcome_cell(base, run_concrete(meta, m, test, step_budget))
                          for m in mutant_ids))
    return KillMatrix(
        tests=tuple(tuple(sorted(t.items())) for t in tests),
        mutant_ids=tuple(mutant_ids),
        cells=tuple(rows),
    )


def surviving_mutants(km: KillMatrix) -> Set[int]:
    return {m for m in km.mutant_ids if not km.kill_set(m)}


def greedy_minimize(km: KillMatrix) -> List[int]:
    """Greedy set cover: repeatedly take the test killing the most not-yet
    covered mutants, earlier test order breaking ties.  Returns test indices;
    the selected subset kills exactly the mutants the full suite kills."""
    kills_by_test = [
        {m for m in km.mutant_ids if km.cells[i][km.mutant_ids.index(m)] == "K"}
        for i in range(len(km.tests))
    ]
    uncovered = set().union(*kills_by_test) if kills_by_test else set()
    chosen: List[int] = []
    while uncovered:
        best = max(range(len(km.tests)),
                   key=lambda i: (len(kills_by_test[i] & uncovered), -i))
        gain = kills_by_test[best] & uncovered
        if not gain:
            break
        chosen.append(best)
        uncovered -= gain
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
