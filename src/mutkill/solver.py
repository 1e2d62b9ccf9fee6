"""Constraint solving over declared finite input domains.

Constraints are the boolean term trees from `terms`.  The solver enumerates
the declared domains in a fixed order (lexicographic symbol names, ascending
values) and returns the first satisfying valuation.  It is a decision
procedure: every query of at most `MAX_POINTS` points is answered sat or
unsat, whatever the machine's speed, and a larger one raises SolverFailure.
It skips the points it can rule out without testing them: a large query is
normalized and runs as a generated loop nest whose ranges its linear
conjuncts narrow.  A small one is not normalized: it ANDs the truth sets of
its own parts, the path conditions and the difference of a kill query
included.  Truth sets (`terms.truth_set`) are computed column-wise, once
per term and domains: each integer subterm is evaluated once over all the
domain's points, and the comparisons and connectives combine the columns as
bitmasks, so a path that grows by one guard costs the guard's truth set and
one AND with the path's.
Decisions are memoized by constraint and domains, so a query posed again
costs one lookup.  A large query that extends decided ones starts from their
answers, before it is normalized: it is unsat if a conjunct was decided
unsat; otherwise, if its other conjuncts hold at a decided conjunct's first
model, completed with the low bound of each symbol the conjunct does not
mention, that point is its first model.  This is exact, not a guess: every
point before it in the enumeration order falsifies that conjunct.
The solver alone decides that a constraint is unsatisfiable:
`terms.normalize_bool` only canonicalizes.  The tests check it against
brute force over the recursive reference semantics (`conftest.meaning`).

Division and modulo truncate toward zero, matching the interpreter; a
comparison whose evaluation divides by zero is false (the concrete run would
have errored out before reaching the comparison).
"""

from __future__ import annotations

import functools
import math
from typing import Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from . import terms as T
from .record import Record
from .terms import And, Bin, BoolTerm, Cmp, Lit, Neg, Var

SAT = "sat"
UNSAT = "unsat"

MAX_POINTS = 1 << 20  # enumeration cap per query


# the declared (name, inclusive (lo, hi)) pairs, as `Lts.inputs` holds them;
# every constraint symbol must appear here
Domains = Tuple[Tuple[str, Tuple[int, int]], ...]


class SolverFailure(Exception):
    pass


class SolverResult(Record):
    __slots__ = ("status", "model")  # status: sat | unsat
    _defaults = {"model": None}

    @property
    def is_sat(self) -> bool:
        return self.status == SAT


_UNSAT = SolverResult(UNSAT)  # every unsat query's result


@functools.cache
def _query_domains(names: frozenset, domains: Domains) -> Domains:
    """The declared domains of the symbols `names` of a query, in name
    order."""
    dom = dict(domains)
    out = []
    for name in sorted(names):
        if name not in dom:
            raise SolverFailure(f"symbol {name!r} has no declared domain")
        out.append((name, dom[name]))
    return tuple(out)


# Enumerations of at least this many points run as a generated loop nest
# (`_enumerator`); smaller ones AND the cached truth sets of their parts
# (`T.truth_set`), which compare the cached value columns of their integer
# subterms.  The bound lies between the corpus' largest query (16 x 16 =
# 256 points) and two inputs over default domains (65 536 points).  A small
# query's parts mostly recur in the next query down the same path, and its
# store terms in many parts, so evaluating each once over the whole domain
# pays; generating code for such queries only costs: compiling every query
# made countdown no faster and raised the corpus' peak memory by a sixth.
_COMPILE_MIN_POINTS = 4096
# CPython nests at most 20 blocks in one function, and each loop is one
_MAX_LOOPS = 20


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
    for item in c.items if isinstance(c, And) else (c,):
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
def _count(doms: Domains) -> int:
    """The number of points of the product of `doms`."""
    return math.prod(hi - lo + 1 for _, (lo, hi) in doms)


@functools.cache
def _point(i: int, doms: Domains) -> Dict[str, int]:
    """The i-th point of the product of `doms`, decoded in mixed radix (last
    name fastest); shared by every model at that point, so it must not be
    changed."""
    values = []
    for _, (lo, hi) in reversed(doms):
        i, digit = divmod(i, hi - lo + 1)
        values.append(lo + digit)
    return dict(zip([name for name, _ in doms], reversed(values)))


def enumerate_models(c: BoolTerm, domains: Domains) -> Iterator[Dict[str, int]]:
    """All satisfying valuations in deterministic order (lexicographic symbol
    names, ascending values).  Complete over the declared `domains`; a query
    of more than `MAX_POINTS` points raises SolverFailure."""
    return _models(c, _query_domains(T.variables(c), domains))


def _models(c: BoolTerm, doms: Domains) -> Iterator[Dict[str, int]]:
    """`enumerate_models` over the query's domains `doms`."""
    total = _count(doms)
    if total > MAX_POINTS:
        raise SolverFailure(f"domain too large for enumeration: {total} points over "
                            f"{', '.join(n for n, _ in doms)} (limit {MAX_POINTS}); "
                            "narrow their declared domains")
    if total >= _COMPILE_MIN_POINTS:
        # the loop nest tests the normalized constraint, which is smaller (a
        # kill query's two paths share a prefix) and has the same models
        names = tuple(n for n, _ in doms)
        norm = T.normalize_bool(c)
        yield from _enumerator(norm, names)(*(range(lo, hi + 1) for _, (lo, hi) in doms))
        return
    mask = T.truth_set(c, doms)
    while mask:
        # the lowest point left
        yield dict(_point((mask & -mask).bit_length() - 1, doms))
        mask &= mask - 1


def is_satisfiable(c: BoolTerm, domains: Domains) -> SolverResult:
    """First-model satisfiability check, decided over the declared `domains`:
    sat with its first model, or unsat.  A repeated query gets the result
    it got first (the same object: its model must not be changed)."""
    return _decide(c, domains)


@functools.cache
def _decisions(domains: Domains) -> dict:
    """constraint -> its decision over `domains`, for every query decided
    over them: the memo in front of `_solve`, which also tells the solver
    whether a query's conjunct was decided."""
    return {}


def _decide(c: BoolTerm, domains: Domains) -> SolverResult:
    decided = _decisions(domains)
    res = decided.get(c)
    if res is None:
        res = decided[c] = _solve(c, domains, decided)
    return res


def _solve(c: BoolTerm, domains: Domains, decided: dict) -> SolverResult:
    doms = _query_domains(T.variables(c), domains)
    total = _count(doms)
    if total < _COMPILE_MIN_POINTS:
        # the truth set of the query as posed is empty where its normal form
        # is false; its model is total over the query's symbols
        mask = T.truth_set(c, doms)
        return SolverResult(SAT, _point((mask & -mask).bit_length() - 1, doms)) if mask else _UNSAT
    if total <= MAX_POINTS:
        # a large query that extends a decided one is not compiled
        res = _from_conjuncts(c, doms, decided)
        if res is not None:
            return res
    # a query whose normal form is the literal false (a conjunct such as
    # `x - x > 0` folds to it) is unsat, however many points
    if T.normalize_bool(c) == T.FALSE:
        return _UNSAT
    for model in _models(c, doms):
        return SolverResult(SAT, model)
    return _UNSAT


def _from_conjuncts(c: BoolTerm, doms: Domains, decided: dict) -> Optional[SolverResult]:
    """The decision of `c` over `doms` from those of its conjuncts, or None.
    `c` is unsat if a conjunct is.  Otherwise take the decided conjunct
    whose first model, completed with the low bound of each symbol it does
    not mention, comes last in the enumeration order: every point before
    that completed model falsifies the conjunct, so if the other conjuncts
    hold there, it is the first model of `c`; if they do not, no earlier
    decided conjunct's model is a model of `c` either."""
    if not isinstance(c, And):
        return None
    best = best_key = None
    for item in c.items:
        res = decided.get(item)
        if res is None:
            continue
        if not res.is_sat:
            return _UNSAT
        key = tuple(res.model.get(n, lo) for n, (lo, _) in doms)
        if best is None or key > best_key:
            best, best_key = item, key
    if best is None:
        return None
    model = dict(zip([n for n, _ in doms], best_key))
    if all(T.holds(item, model) for item in c.items if item is not best):
        return SolverResult(SAT, model)
    return None


# ---------------------------------------------------------------------------
# Constraint builders shared by symex and exec
# ---------------------------------------------------------------------------


def tuple_disequality(left: Sequence[T.IntTerm], right: Sequence[T.IntTerm]) -> BoolTerm:
    """(l1,..,ln) != (r1,..,rn) expanded to a disjunction of component
    disequalities.  Unequal lengths are a structural difference: true."""
    if len(left) != len(right):
        return T.TRUE
    return T.disj([Cmp("!=", l, r) for l, r in zip(left, right)])
