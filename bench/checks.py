"""Correctness checks made apart from the program under test.

Every checker takes parsed outputs and returns a list of problems (empty
when the check passes), so that the test suite can feed it doctored results.
The checks decide kills again on standalone single-mutant programs built with
`mutation.apply_mutant` and run by `interp.run_lts`, never through the
`mutId` selector of the meta-mutant that the kill matrix uses.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import workloads as W

from mutkill import interp, lts as L, mutation

Valuation = Dict[str, int]


# ---------------------------------------------------------------------------
# Output files
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenTest:
    mutant_id: int
    site: str
    valuation: Valuation


def parse_tests(text: str) -> List[GenTest]:
    out: List[GenTest] = []
    header: Optional[Dict[str, str]] = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line:
            continue
        if line.startswith("#"):
            header = dict(f.split("=", 1) for f in line[1:].split())
            continue
        if header is None:
            raise ValueError(f"test without provenance comment: {line!r}")
        out.append(GenTest(int(header["mutant"]), header["site"],
                           W.read_valuations(line)[0]))
        header = None
    return out


@dataclass(frozen=True)
class Matrix:
    mutant_ids: Tuple[int, ...]
    tests: Tuple[Valuation, ...]
    cells: Tuple[Tuple[str, ...], ...]

    def killed(self) -> set:
        return {m for j, m in enumerate(self.mutant_ids)
                if any(row[j] == "K" for row in self.cells)}


def parse_matrix(text: str) -> Matrix:
    lines = text.splitlines()
    ids = tuple(int(x) for x in lines[0].split(",")[1:])
    tests, cells = [], []
    for line in lines[1:]:
        label, *row = line.split(",")
        tests.append({k: int(v) for k, v in
                      (pair.split("=", 1) for pair in label.split(";") if pair)})
        cells.append(tuple(row))
    return Matrix(ids, tuple(tests), tuple(cells))


def parse_tce(text: str) -> Dict[int, str]:
    rows = text.splitlines()[1:]
    return {int(r.split("\t")[0]): r.split("\t")[-1] for r in rows if r}


# ---------------------------------------------------------------------------
# Independent execution
# ---------------------------------------------------------------------------


def outcome(trace) -> tuple:
    return (trace.status,) if trace.status == interp.TIMEOUT else (trace.status, trace.output)


def decide(original, mutant) -> str:
    """K/S/T from two traces by the kill-matrix rule: two timeouts are T
    (no difference witnessed), any other difference in outcome, a one-sided
    timeout included, is K."""
    if original.status == interp.TIMEOUT and mutant.status == interp.TIMEOUT:
        return "T"
    return "K" if outcome(original) != outcome(mutant) else "S"


class Subject:
    """One program, lowered once, with its standalone mutants."""

    def __init__(self, program: W.Program):
        self.program = program
        self.source = program.source()
        self.lts = L.lower_text(self.source, program.path)
        self.mutants = {m.id: m for m in
                        mutation.generate_mutants(self.lts, mutation.SUPPORTED_OPERATORS)}
        self._single: Dict[int, L.Lts] = {}

    def single(self, mutant_id: int) -> L.Lts:
        if mutant_id not in self._single:
            self._single[mutant_id] = mutation.apply_mutant(self.lts, self.mutants[mutant_id])
        return self._single[mutant_id]

    def run(self, mutant_id: int, test: Valuation, step_budget: int):
        lts = self.lts if mutant_id == 0 else self.single(mutant_id)
        return interp.run_lts(lts, test, step_budget=step_budget)

    def domain(self) -> List[Valuation]:
        inputs = W.declared_inputs(self.source)
        names = [n for n, _ in inputs]
        return [dict(zip(names, vals)) for vals in
                itertools.product(*(range(lo, hi + 1) for _, (lo, hi) in inputs))]


# ---------------------------------------------------------------------------
# Checkers
# ---------------------------------------------------------------------------


def check_domains(source: str, suite: Sequence[Valuation]) -> List[str]:
    inputs = dict(W.declared_inputs(source))
    problems = []
    for t in suite:
        if set(t) != set(inputs):
            problems.append(f"test {W.format_valuation(t)} names {sorted(t)}, "
                            f"inputs are {sorted(inputs)}")
            continue
        for name, (lo, hi) in inputs.items():
            if not lo <= t[name] <= hi:
                problems.append(f"test {W.format_valuation(t)}: {name} outside [{lo}, {hi}]")
    return problems


def check_reference(run_original: Callable[[Valuation], object],
                    reference: Callable[[Valuation], W.Outcome],
                    suite: Sequence[Valuation]) -> List[str]:
    problems = []
    for t in suite:
        tr = run_original(t)
        got = (tr.status, tuple(tr.output))
        want = reference(t)
        if got != want:
            problems.append(f"original on {W.format_valuation(t)} gave {got}, "
                            f"reference says {want}")
    return problems


def check_cells(matrix: Matrix, decide_cell: Callable[[Valuation, int], str]) -> List[str]:
    problems = []
    for test, row in zip(matrix.tests, matrix.cells):
        if len(row) != len(matrix.mutant_ids):
            problems.append(f"row {W.format_valuation(test)} has {len(row)} cells")
            continue
        for m, cell in zip(matrix.mutant_ids, row):
            want = decide_cell(test, m)
            if cell != want:
                problems.append(f"cell ({W.format_valuation(test)}, mutant {m}) "
                                f"is {cell}, single-mutant replay says {want}")
    return problems


def check_rows(matrix: Matrix, suite: Sequence[Valuation]) -> List[str]:
    if list(matrix.tests) != list(suite):
        return [f"matrix rows ({len(matrix.tests)}) are not the seeds followed by "
                f"the generated tests ({len(suite)})"]
    return []


def check_terminal_kills(matrix: Matrix, tests: Sequence[GenTest], n_seeds: int) -> List[str]:
    problems = []
    for i, t in enumerate(tests):
        if t.site != "terminal":
            continue
        if t.mutant_id not in matrix.mutant_ids:
            problems.append(f"terminal test for mutant {t.mutant_id} not in the matrix")
            continue
        cell = matrix.cells[n_seeds + i][matrix.mutant_ids.index(t.mutant_id)]
        if cell != "K":
            problems.append(f"site=terminal test {W.format_valuation(t.valuation)} "
                            f"does not kill mutant {t.mutant_id} ({cell})")
    return problems


def check_minimized(matrix: Matrix, chosen: Sequence[int]) -> List[str]:
    full = matrix.killed()
    kept = {m for j, m in enumerate(matrix.mutant_ids)
            if any(matrix.cells[i][j] == "K" for i in chosen)}
    if kept != full:
        return [f"minimized suite kills {sorted(kept)}, full suite kills {sorted(full)}"]
    return []


def check_killable(killed: Sequence[int], killable: Callable[[int], bool]) -> List[str]:
    return [f"mutant {m} killed but no input of the domain kills it"
            for m in sorted(killed) if not killable(m)]


def check_equivalent(verdicts: Dict[int, str], matrix: Matrix,
                     never_killed: Callable[[int], bool]) -> List[str]:
    problems = []
    for m, verdict in sorted(verdicts.items()):
        if verdict != "equivalent":
            continue
        if m in matrix.killed():
            problems.append(f"TCE-equivalent mutant {m} is killed in the matrix")
        elif not never_killed(m):
            problems.append(f"TCE-equivalent mutant {m} is killed by a replay")
    return problems


# ---------------------------------------------------------------------------
# All checks for one program's output directory
# ---------------------------------------------------------------------------


def _read(path: str) -> str:
    with open(path, encoding="utf-8") as f:
        return f.read()


def check_program(workload: W.Workload, program: W.Program, out_dir: str,
                  seeds: Sequence[Valuation]) -> List[str]:
    subject = Subject(program)
    budget = workload.step_budget
    tests = parse_tests(_read(os.path.join(out_dir, "tests.txt")))
    matrix = parse_matrix(_read(os.path.join(out_dir, "matrix.csv")))
    verdicts = parse_tce(_read(os.path.join(out_dir, "tce.tsv")))
    suite = list(seeds) + [t.valuation for t in tests]

    cache: Dict[Tuple[int, Tuple], object] = {}

    def run(m: int, t: Valuation):
        key = (m, tuple(sorted(t.items())))
        if key not in cache:
            cache[key] = subject.run(m, t, budget)
        return cache[key]

    def decide_cell(t: Valuation, m: int) -> str:
        return decide(run(0, t), run(m, t))

    def killed_somewhere(m: int, inputs: Sequence[Valuation]) -> bool:
        return any(decide_cell(t, m) == "K" for t in inputs)

    domain = subject.domain() if workload.small_domain else None
    problems = check_domains(subject.source, suite)
    if problems:  # out-of-domain tests cannot be replayed
        return [f"{workload.name}/{program.name}: {p}" for p in problems]
    problems += check_rows(matrix, suite)
    problems += check_reference(
        lambda t: run(0, t),
        lambda t: W.reference_outcome(program.name, subject.source, t), suite)
    problems += check_cells(matrix, decide_cell)
    problems += check_terminal_kills(matrix, tests, len(seeds))
    problems += check_minimized(matrix, interp.greedy_minimize(interp.KillMatrix(
        tests=tuple(tuple(sorted(t.items())) for t in matrix.tests),
        mutant_ids=matrix.mutant_ids, cells=matrix.cells)))
    if domain is not None:
        problems += check_killable(sorted(matrix.killed()),
                                   lambda m: killed_somewhere(m, domain))
    problems += check_equivalent(
        verdicts, matrix,
        lambda m: not killed_somewhere(m, domain if domain is not None else suite))
    return [f"{workload.name}/{program.name}: {p}" for p in problems]
