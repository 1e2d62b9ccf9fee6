"""Workload definitions: programs, configurations, seed-derived inputs and
the Python reference function of every program.

A workload's inputs are a pure function of the workload name and the
`--seed` value (``random.Random`` seeded with a string is stable across
processes and platforms), so the same seed gives the same files.
"""

from __future__ import annotations

import os
import random
import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
CORPUS = os.path.join(ROOT, "corpus")
PROGRAMS = os.path.join(BENCH_DIR, "programs")

DEFAULT_DOMAIN = (-128, 127)
# Far above what any workload needs: a run whose stats.txt reports this much
# wall clock was cut by the budget and is rejected (see run.py).
BUDGET_SECONDS = 600

# ---------------------------------------------------------------------------
# Reference functions: inputs -> (status, outputs), written from the program
# text, independent of mutkill's parser, lowering and interpreter.
# ---------------------------------------------------------------------------

Outcome = Tuple[str, Tuple[int, ...]]


def _sign(v: int) -> int:
    return (v > 0) - (v < 0)


def _tdiv(x: int, y: int) -> int:
    q = abs(x) // abs(y)
    return q if (x >= 0) == (y > 0) else -q


def _divmod(x: int, y: int) -> Outcome:
    if y == 0:
        return ("error", ())
    q = _tdiv(x, y)
    return ("terminal", (q, x - y * q))


def _fig1(x: int) -> Outcome:
    # x >= 0: after x iterations n = 2 - sum(2 - 4k, k < x) = 2 (x - 1)^2 >= 0
    if x >= 0:
        return ("terminal", (2 * (x - 1) ** 2,))
    return ("terminal", (x + 1,))


def _poly(x: int) -> Outcome:
    y = x * x - 3 * x + 2
    return ("terminal", (1 if y == 0 else y,))


REFERENCES: Dict[str, Callable[..., Outcome]] = {
    "abs": lambda x: ("terminal", (abs(x),)),
    "callfn": lambda x: ("terminal", (2 * abs(x),)),
    "clamp": lambda x: ("terminal", (max(-10, min(10, x)),)),
    "classify": lambda a, b: ("terminal", (_sign(a - b), a + b)),
    # x in [0, 12]: c = ceil(x / 2) halvings, leaving 0 (even) or -1 (odd)
    "countdown": lambda x: ("terminal", ((x + 1) // 2, -(x % 2))),
    "divmod": _divmod,
    "fig1": _fig1,
    "mask": lambda x: ("terminal", (x + 1 if x + 1 > 5 else 0,)),
    "max2": lambda a, b: ("terminal", (max(a, b),)),
    "parity": lambda x: ("terminal", (x % 2,)),
    "poly": _poly,
    "sign": lambda x: ("terminal", (_sign(x),)),
    "sumloop": lambda n: ("terminal", (n * (n + 1) // 2,)),
    "linear": lambda a, b: ("terminal", (1 if a + b == 100 else 0,)),
}

_INPUT_RE = re.compile(
    r"^\s*input\s+(\w+)\s*:\s*int(?:\s+in\s*\[\s*(-?\d+)\s*,\s*(-?\d+)\s*\])?\s*;",
    re.MULTILINE)


def declared_inputs(source: str) -> List[Tuple[str, Tuple[int, int]]]:
    """Input names and inclusive domains in declaration order, read from the
    source text with a regular expression (not with mutkill's parser)."""
    out = []
    for m in _INPUT_RE.finditer(source):
        dom = (int(m.group(2)), int(m.group(3))) if m.group(2) else DEFAULT_DOMAIN
        out.append((m.group(1), dom))
    return out


def reference_outcome(name: str, source: str, test: Dict[str, int]) -> Outcome:
    args = [test[n] for n, _ in declared_inputs(source)]
    return REFERENCES[name](*args)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Program:
    name: str
    path: str

    def source(self) -> str:
        with open(self.path, encoding="utf-8") as f:
            return f.read()


@dataclass(frozen=True)
class Workload:
    name: str
    programs: Tuple[Program, ...]
    config: Tuple[Tuple[str, str], ...]  # key = value lines
    seeds_per_program: int  # seed inputs drawn per program; 0 = no seed file
    step_budget: int
    small_domain: bool  # exhaustive-domain checks are affordable

    def config_text(self, seed: int) -> str:
        rows = [f"{k} = {v}" for k, v in self.config]
        rows.append(f"STEP_BUDGET = {self.step_budget}")
        rows.append(f"BUDGET_SECONDS = {BUDGET_SECONDS}")
        # RNG_SEED only picks the branches kept at semu checkpoints with PP < 1
        rows.append(f"RNG_SEED = {seed}")
        return "\n".join(rows) + "\n"

    def seed_inputs(self, program: Program, seed: int) -> List[Dict[str, int]]:
        """Seed inputs, stratified over the first input's domain so that every
        seed covers the same spread of loop lengths; later inputs are drawn
        uniformly."""
        rng = random.Random(f"{self.name}:{program.name}:{seed}")
        inputs = declared_inputs(program.source())
        k = self.seeds_per_program
        out = []
        for i in range(k):
            val = {}
            for j, (name, (lo, hi)) in enumerate(inputs):
                if j == 0:
                    width = (hi - lo + 1) / k
                    a = lo + int(i * width)
                    b = max(a, lo + int((i + 1) * width) - 1)
                    val[name] = rng.randint(a, b)
                else:
                    val[name] = rng.randint(lo, hi)
            out.append(val)
        return out


def _corpus(*names: str) -> Tuple[Program, ...]:
    return tuple(Program(n, os.path.join(CORPUS, n + ".mimp")) for n in names)


CORPUS_NAMES = ("abs", "callfn", "clamp", "classify", "countdown", "divmod",
                "fig1", "mask", "max2", "parity", "poly", "sign", "sumloop")

WORKLOADS: Dict[str, Workload] = {
    # The repo's reference programs in the acceptance configuration (PP=1.0),
    # with MAX_STATES lowered so that one round fits a benchmark run.
    "corpus": Workload(
        name="corpus",
        programs=_corpus(*CORPUS_NAMES),
        config=(("MODE", "semu"), ("PP", "1.0"), ("MAX_STATES", "1000"),
                ("MAX_DEPTH", "200")),
        seeds_per_program=0,
        step_budget=500,
        small_domain=True,
    ),
    # Two-input programs over the default domain: the bounded solver
    # enumerates up to 65 536 points per query.
    "wide": Workload(
        name="wide",
        programs=tuple(Program(n, os.path.join(PROGRAMS, n + ".mimp"))
                       for n in ("classify", "max2", "divmod", "linear")),
        config=(("MODE", "semu"), ("PP", "0.25"), ("CW", "0"), ("MPD", "2"),
                ("PSS", "RND"), ("MAX_STATES", "200"), ("MAX_DEPTH", "200")),
        seeds_per_program=0,
        step_budget=100_000,
        small_domain=False,
    ),
    # Loop programs in infection-only mode with seeds: the kill matrix is
    # long replays of mutants that do not terminate.
    "loops": Workload(
        name="loops",
        programs=_corpus("countdown", "sumloop", "fig1"),
        config=(("MODE", "infection-only"), ("MAX_STATES", "2000"),
                ("MAX_DEPTH", "200")),
        seeds_per_program=4,
        step_budget=1000,
        small_domain=True,
    ),
}


def format_valuation(test: Dict[str, int]) -> str:
    return ",".join(f"{k}={v}" for k, v in sorted(test.items()))


def write_inputs(workload: Workload, seed: int, out_dir: str) -> Tuple[str, Optional[str]]:
    """Write the configuration and (if any) one seed file per program; return
    the configuration path and the seed-file name pattern."""
    os.makedirs(out_dir, exist_ok=True)
    cfg = os.path.join(out_dir, "run.cfg")
    with open(cfg, "w", encoding="utf-8") as f:
        f.write(workload.config_text(seed))
    if not workload.seeds_per_program:
        return cfg, None
    for p in workload.programs:
        with open(os.path.join(out_dir, p.name + ".seeds"), "w", encoding="utf-8") as f:
            for v in workload.seed_inputs(p, seed):
                f.write(format_valuation(v) + "\n")
    return cfg, os.path.join(out_dir, "{}.seeds")


def seeds_path(pattern: Optional[str], program: Program) -> Optional[str]:
    return pattern.format(program.name) if pattern else None


def read_valuations(text: str) -> List[Dict[str, int]]:
    out = []
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            out.append({k.strip(): int(v) for k, v in
                        (pair.split("=", 1) for pair in line.split(",") if pair.strip())})
    return out
