"""Constraint solving over declared finite input domains.

Constraints are the boolean term trees from `terms`.  The solver enumerates
the declared domains in a fixed order (lexicographic symbol names, ascending
values) and returns the first satisfying valuation.  It is a decision
procedure: every query of at most `MAX_POINTS` points is answered sat or
unsat, whatever the machine's speed, and a larger one raises SolverFailure.
It skips the points it can rule out without testing them: a large query runs
as a generated loop nest whose ranges its linear conjuncts narrow, and a
small one ANDs the truth sets of its conjuncts, each computed once per
conjunct and domain.  The same machinery doubles as the exhaustive oracle
used in tests.

Division and modulo truncate toward zero, matching the interpreter; a
comparison whose evaluation divides by zero is false (the concrete run would
have errored out before reaching the comparison).
"""

from __future__ import annotations

import functools
import itertools
import math
from typing import Callable, Dict, Iterator, List, Sequence, Tuple

from . import terms as T
from .record import Record
from .terms import And, Bin, BoolTerm, Cmp, Lit, Neg, Var

SAT = "sat"
UNSAT = "unsat"

MAX_POINTS = 1 << 20  # enumeration cap per query


class SolverFailure(Exception):
    pass


class SolverResult(Record):
    __slots__ = ("status", "model")  # status: sat | unsat
    _defaults = {"model": None}

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


class SolverHandle(Record):
    """The declared input domains: sorted (name, inclusive (lo, hi)) pairs.
    Every constraint symbol must appear here."""

    __slots__ = ("domains",)

    @staticmethod
    def bounded(domains: Dict[str, Tuple[int, int]]) -> "SolverHandle":
        return SolverHandle(tuple(sorted(domains.items())))

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


# Enumerations of at least this many points run as a generated loop nest
# (`_enumerator`); smaller ones AND the cached truth sets of their conjuncts
# (`_truth_set`).  The bound lies between the corpus' largest query (16 x 16
# = 256 points) and two inputs over default domains (65 536 points).  A
# small query's conjuncts mostly recur in the next query down the same path,
# so evaluating each once over the whole domain pays; generating code for
# such queries only costs: compiling every query made countdown no faster
# and raised the corpus' peak memory by a sixth.
_COMPILE_MIN_POINTS = 4096
# CPython nests at most 20 blocks in one function, and each loop is one
_MAX_LOOPS = 20


def _conjuncts(c: BoolTerm) -> tuple:
    return c.items if isinstance(c, And) else (c,)


def _unit_bounds(item: BoolTerm, v: str):
    """(lower, stop): terms over the other variables of the normalized
    conjunct `item` such that it holds exactly where `lower <= v < stop`,
    None standing for no bound.  None unless `item` is `p < 0` or `p == 0`
    without division and `v` occurs in `p` only as the monomial +v or -v."""
    if not (isinstance(item, Cmp) and item.op in ("<", "==") and item.right == Lit(0)
            and not T.has_division(item)):
        return None
    p = item.left
    q = T.normalize_int(T.subst(p, {v: Lit(0)}))
    if p == T.normalize_int(Bin("+", q, Var(v))):  # p == v - sol
        sol = T.normalize_int(Neg(q))
        after = T.normalize_int(Bin("+", sol, Lit(1)))
        return (sol, after) if item.op == "==" else (None, sol)
    if p == T.normalize_int(Bin("-", q, Var(v))):  # p == sol - v
        after = T.normalize_int(Bin("+", q, Lit(1)))
        return (q, after) if item.op == "==" else (after, None)
    return None


def _extreme(fn: str, exprs: List[str]) -> str:
    return exprs[0] if len(exprs) == 1 else f"{fn}({', '.join(exprs)})"


@functools.lru_cache(maxsize=256)
def _enumerator(c: BoolTerm, names: Tuple[str, ...]) -> Callable:
    """`models(r0, r1, ...)`: a generator of the valuations of `names` over
    the ranges `r0, r1, ...` that satisfy the normalized constraint `c` under
    `T.holds`, in `itertools.product` order.  There is one loop per name, the
    first outermost; past `_MAX_LOOPS` names, the innermost loop runs over
    the product of the remaining names' ranges.  A top-level conjunct of `c`
    that `_unit_bounds` solves for the one name of the innermost loop that
    binds its variables narrows that loop's range; every other conjunct is
    tested in the outermost loop that binds all its variables."""
    local = {n: f"v{i}" for i, n in enumerate(names)}
    src = T.Source(local, constraint=True)
    # loops[k]: the indices of the names that loop k binds
    loops = [[i] for i in range(len(names))]
    if len(loops) > _MAX_LOOPS:
        loops[_MAX_LOOPS - 1:] = [list(range(_MAX_LOOPS - 1, len(names)))]
    binder = {names[i]: k for k, bound in enumerate(loops) for i in bound}
    # levels[k]: the conjuncts whose variables the first k loops bind;
    # lower[k], stop[k]: the bounds of loop k's range
    levels: List[List[str]] = [[] for _ in range(len(loops) + 1)]
    lower = [[f"r{k}.start"] for k in range(len(loops))]
    stop = [[f"r{k}.stop"] for k in range(len(loops))]
    for item in _conjuncts(c):
        k = max((binder[n] + 1 for n in T.variables(item)), default=0)
        bounds = k and len(loops[k - 1]) == 1 and _unit_bounds(item, names[loops[k - 1][0]])
        if not bounds:
            levels[k].append(src.expr(item))
            continue
        for exprs, t in zip((lower[k - 1], stop[k - 1]), bounds):
            if t is not None:
                exprs.append(src.expr(t))
    body, pad = [], ""
    for k, conjuncts in enumerate(levels):
        if conjuncts:
            body.append(f"{pad}if {' and '.join(conjuncts)}:")
            pad += "    "
        if k < len(loops):
            bound = ", ".join(f"v{i}" for i in loops[k])
            ranges = ", ".join(f"r{i}" for i in loops[k])
            if len(loops[k]) > 1:
                ranges = f"_product({ranges})"
            elif len(lower[k]) + len(stop[k]) > 2:
                ranges = f"range({_extreme('max', lower[k])}, {_extreme('min', stop[k])})"
            body.append(f"{pad}for {bound} in {ranges}:")
            pad += "    "
    body.append(pad + "yield {" + ", ".join(f"{n!r}: {v}" for n, v in local.items()) + "}")
    src.define(f"models({', '.join(f'r{k}' for k in range(len(names)))})", body)
    return src.functions("<mutkill constraint>")["models"]


@functools.cache
def _truth_set(c: BoolTerm, doms: Tuple[Tuple[str, Tuple[int, int]], ...]) -> int:
    """The points of the product of `doms` at which `c` holds, as a bitmask:
    bit i stands for the i-th point in `itertools.product` order."""
    names = [n for n, _ in doms]
    holds = T.holds
    bits = "".join("1" if holds(c, dict(zip(names, values))) else "0"
                   for values in itertools.product(*(range(lo, hi + 1) for _, (lo, hi) in doms)))
    return int(bits[::-1], 2)


def enumerate_models(c: BoolTerm, h: SolverHandle) -> Iterator[Dict[str, int]]:
    """All satisfying valuations in deterministic order (lexicographic symbol
    names, ascending values).  Complete over the declared domains; a query
    of more than `MAX_POINTS` points raises SolverFailure."""
    doms = _query_domains(c, h)
    total = math.prod(hi - lo + 1 for _, (lo, hi) in doms)
    if total > MAX_POINTS:
        raise SolverFailure(f"domain too large for enumeration: {total} points over "
                            f"{', '.join(n for n, _ in doms)} (limit {MAX_POINTS}); "
                            "narrow their declared domains")
    names = tuple(n for n, _ in doms)
    # both paths test the normalized constraint, which is smaller (a kill
    # query's two paths share a prefix) and has the same models
    norm = T.normalize_bool(c)
    if total >= _COMPILE_MIN_POINTS:
        yield from _enumerator(norm, names)(*(range(lo, hi + 1) for _, (lo, hi) in doms))
        return
    key = tuple(doms)
    mask = (1 << total) - 1
    for item in _conjuncts(norm):
        mask &= _truth_set(item, key)
    while mask:
        # the lowest point left, decoded in mixed radix (last name fastest)
        i = (mask & -mask).bit_length() - 1
        mask &= mask - 1
        values = []
        for _, (lo, hi) in reversed(doms):
            i, digit = divmod(i, hi - lo + 1)
            values.append(lo + digit)
        yield dict(zip(names, reversed(values)))


def is_satisfiable(c: BoolTerm, h: SolverHandle) -> SolverResult:
    """First-model satisfiability check, decided over the declared domains:
    sat with its first model, or unsat."""
    if T.normalize_bool(c) == T.FALSE:
        return SolverResult(UNSAT)
    # enumerate over the original constraint's symbols so the model is total
    for model in enumerate_models(c, h):
        return SolverResult(SAT, model)
    return SolverResult(UNSAT)


# ---------------------------------------------------------------------------
# Constraint builders shared by symex and exec
# ---------------------------------------------------------------------------


def tuple_disequality(left: Sequence[T.IntTerm], right: Sequence[T.IntTerm]) -> BoolTerm:
    """(l1,..,ln) != (r1,..,rn) expanded to a disjunction of component
    disequalities.  Unequal lengths are a structural difference: true."""
    if len(left) != len(right):
        return T.TRUE
    return T.disj([Cmp("!=", l, r) for l, r in zip(left, right)])
