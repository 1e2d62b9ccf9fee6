"""Constraint solving over declared finite input domains.

Constraints are the boolean term trees from `terms`.  Two backends share one
handle type:

* bounded enumeration: walks the declared domains in a fixed order
  (lexicographic symbol names, ascending values) and returns the first
  satisfying valuation.  Complete and deterministic at desk scale, and the
  same machinery doubles as the exhaustive oracle used in tests.
* external process: emits an SMT-LIB v2 script on the subprocess's stdin and
  parses sat/unsat/unknown plus a get-value model from stdout.

Division and modulo truncate toward zero, matching the interpreter; a
comparison whose evaluation divides by zero is false (the concrete run would
have errored out before reaching the comparison).
"""

from __future__ import annotations

import itertools
import shlex
import subprocess
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from . import terms as T
from .terms import And, Bin, BoolLit, BoolTerm, Cmp, Lit, Neg, Not, Or, Var

SAT = "sat"
UNSAT = "unsat"
UNKNOWN = "unknown"

DEFAULT_TIMEOUT = 5.0  # seconds per query


class SolverFailure(Exception):
    pass


class ExternalProcessFailure(SolverFailure):
    pass


@dataclass(frozen=True)
class SolverResult:
    status: str  # sat | unsat | unknown
    model: Optional[Dict[str, int]] = None

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


@dataclass(frozen=True)
class SolverHandle:
    """Backend selector plus the declared input domains.

    domains: name -> inclusive (lo, hi).  The bounded backend requires every
    constraint symbol to appear here.
    """

    domains: Tuple[Tuple[str, Tuple[int, int]], ...]
    backend: str = "bounded"  # bounded | external
    timeout: float = DEFAULT_TIMEOUT
    external_cmd: Optional[Tuple[str, ...]] = None
    max_points: int = 1 << 20  # enumeration cap per query

    @staticmethod
    def bounded(domains: Dict[str, Tuple[int, int]], timeout: float = DEFAULT_TIMEOUT,
                max_points: int = 1 << 20) -> "SolverHandle":
        return SolverHandle(tuple(sorted(domains.items())), "bounded", timeout,
                            None, max_points)

    @staticmethod
    def external(domains: Dict[str, Tuple[int, int]], cmd,
                 timeout: float = DEFAULT_TIMEOUT) -> "SolverHandle":
        if isinstance(cmd, str):
            cmd = tuple(shlex.split(cmd))
        return SolverHandle(tuple(sorted(domains.items())), "external", timeout,
                            tuple(cmd))

    @property
    def domain_map(self) -> Dict[str, Tuple[int, int]]:
        return dict(self.domains)


def _query_domains(c: BoolTerm, h: SolverHandle) -> List[Tuple[str, Tuple[int, int]]]:
    dom = h.domain_map
    out = []
    for name in sorted(T.variables(c)):
        if name not in dom:
            raise SolverFailure(f"symbol {name!r} has no declared domain")
        out.append((name, dom[name]))
    return out


def enumerate_models(c: BoolTerm, h: SolverHandle,
                     deadline: Optional[float] = None) -> Iterator[Optional[Dict[str, int]]]:
    """All satisfying valuations in deterministic order (lexicographic symbol
    names, ascending values).  Complete over the declared domains.  With a
    `deadline` (a `time.monotonic()` value), yields None and stops once it
    has passed: the enumeration is then incomplete."""
    doms = _query_domains(c, h)
    total = 1
    for _, (lo, hi) in doms:
        total *= hi - lo + 1
    if total > h.max_points:
        raise SolverFailure(f"domain too large for enumeration: {total} points")
    names = [n for n, _ in doms]
    for values in itertools.product(*(range(lo, hi + 1) for _, (lo, hi) in doms)):
        env = dict(zip(names, values))
        if T.holds(c, env):
            yield env
        elif deadline is not None and time.monotonic() > deadline:
            yield None
            return


def is_satisfiable(c: BoolTerm, h: SolverHandle) -> SolverResult:
    """First-model satisfiability check.  The bounded backend is complete
    over the declared domains; the external backend defers to the tool."""
    if h.backend == "external":
        return _solve_external(c, h)
    if T.normalize_bool(c) == T.FALSE:
        return SolverResult(UNSAT)
    # enumerate over the original constraint's symbols so the model is total
    for model in enumerate_models(c, h, time.monotonic() + h.timeout):
        return SolverResult(SAT, model) if model is not None else SolverResult(UNKNOWN)
    return SolverResult(UNSAT)


# ---------------------------------------------------------------------------
# SMT-LIB emission
# ---------------------------------------------------------------------------

_SMT_TDIV = (
    "(define-fun tdiv ((a Int) (b Int)) Int"
    " (ite (= (mod a b) 0) (div a b)"
    " (ite (< a 0) (ite (> b 0) (+ (div a b) 1) (- (div a b) 1)) (div a b))))"
)
_SMT_TMOD = "(define-fun tmod ((a Int) (b Int)) Int (- a (* b (tdiv a b))))"


def _smt_int(t) -> str:
    if isinstance(t, Lit):
        return str(t.value) if t.value >= 0 else f"(- {-t.value})"
    if isinstance(t, Var):
        return t.name
    if isinstance(t, Neg):
        return f"(- {_smt_int(t.operand)})"
    if isinstance(t, Bin):
        op = {"+": "+", "-": "-", "*": "*", "/": "tdiv", "%": "tmod"}[t.op]
        return f"({op} {_smt_int(t.left)} {_smt_int(t.right)})"
    raise SolverFailure(f"not an integer term: {t!r}")


def _smt_bool(t) -> str:
    if isinstance(t, BoolLit):
        return "true" if t.value else "false"
    if isinstance(t, Cmp):
        l, r = _smt_int(t.left), _smt_int(t.right)
        if t.op == "==":
            core = f"(= {l} {r})"
        elif t.op == "!=":
            core = f"(not (= {l} {r}))"
        else:
            core = f"({t.op} {l} {r})"
        # a comparison that divides by zero is false as a whole, so every
        # divisor must be pinned nonzero inside the atom, not outside the
        # enclosing negation
        guards = [f"(not (= {_smt_int(d)} 0))"
                  for d in T.divisors(t)]
        if guards:
            return "(and " + " ".join(dict.fromkeys(guards)) + f" {core})"
        return core
    if isinstance(t, And):
        return "(and " + " ".join(_smt_bool(i) for i in t.items) + ")" if t.items else "true"
    if isinstance(t, Or):
        return "(or " + " ".join(_smt_bool(i) for i in t.items) + ")" if t.items else "false"
    if isinstance(t, Not):
        return f"(not {_smt_bool(t.operand)})"
    raise SolverFailure(f"not a boolean term: {t!r}")


def emit_smtlib(c: BoolTerm, domains: Dict[str, Tuple[int, int]]) -> str:
    """Self-contained SMT-LIB v2 script: symbol declarations, domain bound
    assertions, the constraint, check-sat and a get-value for the model."""
    names = sorted(T.variables(c))
    lines = ["(set-logic ALL)", "(set-option :produce-models true)"]
    if T.has_division(c):
        lines += [_SMT_TDIV, _SMT_TMOD]
    for n in names:
        lines.append(f"(declare-const {n} Int)")
    for n in names:
        if n not in domains:
            raise SolverFailure(f"symbol {n!r} has no declared domain")
        lo, hi = domains[n]
        lines.append(f"(assert (>= {n} {_smt_int(Lit(lo))}))")
        lines.append(f"(assert (<= {n} {_smt_int(Lit(hi))}))")
    lines.append(f"(assert {_smt_bool(c)})")
    lines.append("(check-sat)")
    if names:
        lines.append("(get-value (" + " ".join(names) + "))")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# External backend
# ---------------------------------------------------------------------------


def _parse_sexpr(text: str):
    """Minimal s-expression reader for get-value responses."""
    tokens = text.replace("(", " ( ").replace(")", " ) ").split()

    def read(i):
        if tokens[i] == "(":
            out = []
            i += 1
            while tokens[i] != ")":
                node, i = read(i)
                out.append(node)
            return out, i + 1
        return tokens[i], i + 1

    node, _ = read(0)
    return node


def _sexpr_int(node) -> int:
    if isinstance(node, str):
        return int(node)
    if isinstance(node, list) and len(node) == 2 and node[0] == "-":
        return -_sexpr_int(node[1])
    raise ExternalProcessFailure(f"unparseable model value: {node!r}")


def _solve_external(c: BoolTerm, h: SolverHandle) -> SolverResult:
    if not h.external_cmd:
        raise ExternalProcessFailure("no external solver command configured")
    script = emit_smtlib(c, h.domain_map)
    try:
        proc = subprocess.run(
            list(h.external_cmd), input=script, capture_output=True,
            text=True, timeout=h.timeout,
        )
    except subprocess.TimeoutExpired:
        return SolverResult(UNKNOWN)
    except OSError as e:
        raise ExternalProcessFailure(f"cannot run {h.external_cmd}: {e}") from e
    out = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not out:
        raise ExternalProcessFailure(
            f"solver exited {proc.returncode}: {proc.stderr.strip()[:200]}"
        )
    verdict = out[0].strip()
    if verdict == "unsat":
        return SolverResult(UNSAT)
    if verdict == "unknown":
        return SolverResult(UNKNOWN)
    if verdict != "sat":
        raise ExternalProcessFailure(f"unexpected verdict line: {verdict!r}")
    names = sorted(T.variables(c))
    model: Dict[str, int] = {}
    if names:
        rest = "\n".join(out[1:]).strip()
        if not rest:
            raise ExternalProcessFailure("sat verdict but no model response")
        for pair in _parse_sexpr(rest):
            if isinstance(pair, list) and len(pair) == 2 and isinstance(pair[0], str):
                model[pair[0]] = _sexpr_int(pair[1])
        missing = [n for n in names if n not in model]
        if missing:
            raise ExternalProcessFailure(f"model missing symbols: {missing}")
        if not T.holds(c, model):
            raise ExternalProcessFailure(f"external model does not satisfy constraint: {model}")
    return SolverResult(SAT, model)


# ---------------------------------------------------------------------------
# Constraint builders shared by symex and exec
# ---------------------------------------------------------------------------


def tuple_disequality(left: Sequence[T.IntTerm], right: Sequence[T.IntTerm]) -> BoolTerm:
    """(l1,..,ln) != (r1,..,rn) expanded to a disjunction of component
    disequalities.  Unequal lengths are a structural difference: true."""
    if len(left) != len(right):
        return T.TRUE
    return T.disj([Cmp("!=", l, r) for l, r in zip(left, right)])
