"""Concrete interpretation of (meta-)programs and kill-matrix analyses.

A trace records every (valuation, location) couple, the emitted output
stream, and a status: `terminal` for normal exit, `error` for a runtime
error (division or modulo by zero), `timeout` when the step budget runs out.

Output comparison is exact sequence equality plus status: an error differs
from every normal output; a one-sided timeout counts as a difference, but
two timeouts compare as survived because no difference was witnessed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Set, Tuple

from . import terms as T
from .lts import Lts, MUT_ID
from .mutation import MetaMutant

DEFAULT_STEP_BUDGET = 100_000

OK = "terminal"
ERROR = "error"
TIMEOUT = "timeout"


class DomainViolation(Exception):
    pass


@dataclass(frozen=True)
class Trace:
    couples: Tuple[Tuple[Tuple[Tuple[str, int], ...], int], ...]
    output: Tuple[int, ...]
    status: str  # terminal | error | timeout
    steps: int

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


def run_lts(lts: Lts, test: Dict[str, int], extra: Optional[Dict[str, int]] = None,
            step_budget: int = DEFAULT_STEP_BUDGET) -> Trace:
    """Deterministic execution from the entry location.  Non-input variables
    start at 0; `extra` overlays hidden variables such as the mutant
    selector."""
    _check_domains(lts, test)
    env: Dict[str, int] = {v: 0 for v in lts.variables}
    env.update(test)
    if extra:
        env.update(extra)
    hidden = set(extra or ())

    def snap() -> Tuple[Tuple[str, int], ...]:
        return tuple((k, env[k]) for k in sorted(env) if k not in hidden)

    succ = lts.successors()
    loc = lts.entry
    couples = [(snap(), loc)]
    output: List[int] = []
    steps = 0
    while loc not in lts.terminals:
        if steps >= step_budget:
            return Trace(tuple(couples), tuple(output), TIMEOUT, steps)
        taken = None
        try:
            for t in succ[loc]:
                if T.eval_bool(t[1].guard, env):
                    taken = t
                    break
            if taken is None:
                raise AssertionError(f"no enabled transition at location {loc}")
            _, gc, dst = taken
            updates = {name: T.eval_int(term, env) for name, term in gc.update}
            if gc.emit is not None:
                output.append(T.eval_int(gc.emit, env))
        except T.EvalError:
            return Trace(tuple(couples), tuple(output), ERROR, steps + 1)
        env.update(updates)
        loc = dst
        steps += 1
        couples.append((snap(), loc))
    return Trace(tuple(couples), tuple(output), OK, steps)


def run_concrete(meta: MetaMutant, mut_id: int, test: Dict[str, int],
                 step_budget: int = DEFAULT_STEP_BUDGET) -> Trace:
    """Execute the meta-mutant under the given selector (0 = original)."""
    if mut_id != 0 and mut_id not in meta.mutants:
        raise DomainViolation(f"unknown mutant id {mut_id}")
    return run_lts(meta.lts, test, extra={MUT_ID: mut_id}, step_budget=step_budget)


# ---------------------------------------------------------------------------
# Kill matrix
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KillMatrix:
    tests: Tuple[Tuple[Tuple[str, int], ...], ...]  # ordered, as sorted item tuples
    mutant_ids: Tuple[int, ...]
    cells: Tuple[Tuple[str, ...], ...]  # cells[test][mutant] in {K, S, T}

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


def trace_dump(trace: Trace) -> str:
    lines = []
    for snap, loc in trace.couples:
        vars_txt = " ".join(f"{k}={v}" for k, v in snap)
        lines.append(f"({loc}, {vars_txt})")
    lines.append(f"status={trace.status} output={list(trace.output)} steps={trace.steps}")
    return "\n".join(lines) + "\n"
