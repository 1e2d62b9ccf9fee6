"""Mutant generation as transition replacement, static equivalence filtering
(normalization + serialization hashing), and meta-mutant construction.

Supported operators:

* AOR  — swap an arithmetic operator (+ - * / %) in an update or output term
* ROR  — swap a comparison operator (< <= > >= == !=) in a branch guard
* LCR  — swap && / || in a branch guard
* SDL  — delete a statement (update and output dropped, control preserved)
* CRP  — replace an integer literal c by one of c+1, c-1, 0, 1, -c
* RHS  — perturb an assignment right-hand side: e -> e+1, e -> e-1

Enumeration order is fixed: ascending location ID, then operator name, then
pre-order position of the mutated subterm, then replacement order.  IDs are
dense and 1-based; 0 always selects the original program.
"""

from __future__ import annotations

from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import terms as T
from .lts import GuardedCommand, Lts, Transition
from .record import Record
from .terms import And, Bin, Cmp, Lit, Or, Var

SUPPORTED_OPERATORS = ("AOR", "CRP", "LCR", "RHS", "ROR", "SDL")


class UnknownOperator(Exception):
    pass


class IdCollision(Exception):
    pass


class Mutant(Record):
    """`operator` names the rewrite (e.g. "ROR:<-><="); `original` and
    `mutated` are the source fragment before and after it.  `loc` is the
    mutation point: the mutant program is the original with the
    transitions out of `loc` (both arms of a branch, the one transition
    elsewhere) replaced by `replacement`."""

    __slots__ = ("id", "operator", "loc", "pos", "original", "mutated", "replacement")


class MetaMutant(Record):
    """The original program and its mutants, run as one: ID 0 selects the
    original, every other ID its mutant, which forks off the original at
    its mutation point, the mutant's `loc`.  `index` pairs each ID with its
    Mutant, IDs ascending."""

    # no slots: the cached properties below live in the instance's dict
    _fields = ("base", "index")

    @cached_property
    def mutants(self) -> Dict[int, Mutant]:
        return dict(self.index)

    @cached_property
    def mutation_points(self) -> Dict[int, Tuple[int, ...]]:
        """Each mutation point with the IDs of its mutants, ascending."""
        points: Dict[int, Tuple[int, ...]] = {}
        for i, m in self.index:
            points[m.loc] = points.get(m.loc, ()) + (i,)
        return points

    @cached_property
    def _programs(self) -> Dict[int, Lts]:
        return {0: self.base}

    def program(self, mut_id: int) -> Lts:
        """The program that ID `mut_id` runs: the base program for 0, else
        the standalone mutant (`apply_mutant`, cached)."""
        prog = self._programs.get(mut_id)
        if prog is None:
            prog = self._programs[mut_id] = apply_mutant(self.base, self.mutants[mut_id])
        return prog


class TceReport(Record):
    """`equivalent`: the mutants whose normal form is the original's;
    `duplicate_groups`: sorted groups of at least two mutants with one
    normal form; `surviving`: the other mutants."""

    __slots__ = ("equivalent", "duplicate_groups", "surviving")

    def representatives(self) -> Tuple[int, ...]:
        return tuple(g[0] for g in self.duplicate_groups)

    def kept(self) -> Tuple[int, ...]:
        """Mutants worth exploring: survivors plus one representative per
        duplicate group."""
        return tuple(sorted(self.surviving + self.representatives()))


# ---------------------------------------------------------------------------
# Subterm rewriting
# ---------------------------------------------------------------------------


def _rewrites(t, rewriter) -> List[Tuple[object, object, object]]:
    """All single-point rewrites of term t, pre-order.  Returns
    (new_term, old_subterm, new_subterm) triples."""
    out = [(repl, t, repl) for repl in rewriter(t)]
    kids = T._subterms(t)
    for i, sub in enumerate(kids):
        for new_sub, old_node, new_node in _rewrites(sub, rewriter):
            new = T.with_subterms(t, kids[:i] + (new_sub,) + kids[i + 1:])
            out.append((new, old_node, new_node))
    return out


def _aor(node):
    if isinstance(node, Bin):
        return [node.replace(op=op) for op in T.ARITH_OPS if op != node.op]
    return []


def _ror(node):
    if isinstance(node, Cmp):
        return [node.replace(op=op) for op in T.CMP_OPS if op != node.op]
    return []


def _lcr(node):
    if isinstance(node, And):
        return [Or(node.items)]
    if isinstance(node, Or):
        return [And(node.items)]
    return []


def _crp(node):
    if isinstance(node, Lit):
        seen, out = {node.value}, []
        for v in (node.value + 1, node.value - 1, 0, 1, -node.value):
            if v not in seen:
                seen.add(v)
                out.append(Lit(v))
        return out
    return []


_GUARD_REWRITERS = {"CRP": _crp, "LCR": _lcr, "ROR": _ror}
_TERM_REWRITERS = {"AOR": _aor, "CRP": _crp}


# ---------------------------------------------------------------------------
# Generation
# ---------------------------------------------------------------------------


def _label(name: str, old, new) -> str:
    return f"{name}:{T.render(old)}->{T.render(new)}"


def _straightline_variants(name: str, loc: int, gc: GuardedCommand, src: int, dst: int):
    """Mutants of a single-transition location.  Yields (label, old_frag,
    new_frag, replacement transitions)."""
    if name in _TERM_REWRITERS:
        rw = _TERM_REWRITERS[name]
        for i, (var, term) in enumerate(gc.update):
            for new_term, old_n, new_n in _rewrites(term, rw):
                upd = gc.update[:i] + ((var, new_term),) + gc.update[i + 1:]
                yield (_label(name, old_n, new_n), T.render(old_n), T.render(new_n),
                       ((src, gc.replace(update=upd), dst),))
        if gc.emit is not None:
            for new_term, old_n, new_n in _rewrites(gc.emit, rw):
                yield (_label(name, old_n, new_n), T.render(old_n), T.render(new_n),
                       ((src, gc.replace(emit=new_term), dst),))
    elif name == "RHS":
        for i, (var, term) in enumerate(gc.update):
            for delta in (Bin("+", term, Lit(1)), Bin("-", term, Lit(1))):
                upd = gc.update[:i] + ((var, delta),) + gc.update[i + 1:]
                yield (_label("RHS", term, delta), T.render(term), T.render(delta),
                       ((src, gc.replace(update=upd), dst),))
    elif name == "SDL":
        if gc.update or gc.emit is not None:
            old = T.render(gc.emit) if gc.emit is not None else T.render(gc.update[0][1])
            yield ("SDL", old, "<deleted>",
                   ((src, GuardedCommand(guard=gc.guard), dst),))


def _branch_variants(name: str, loc: int, outs: Sequence[Transition]):
    """Guard mutants of a two-way branch.  The positive guard is rewritten
    and the complement recomputed, preserving determinism."""
    if name not in _GUARD_REWRITERS:
        return
    rw = _GUARD_REWRITERS[name]
    (s1, gc1, d1), (s2, gc2, d2) = outs
    for new_guard, old_n, new_n in _rewrites(gc1.guard, rw):
        yield (_label(name, old_n, new_n), T.render(old_n), T.render(new_n),
               ((s1, gc1.replace(guard=new_guard), d1),
                (s2, gc2.replace(guard=T.negate(new_guard)), d2)))


def generate_mutants(lts: Lts, operators) -> List[Mutant]:
    ops = sorted(set(operators))
    if not ops:
        raise UnknownOperator("empty operator set")
    for op in ops:
        if op not in SUPPORTED_OPERATORS:
            raise UnknownOperator(f"unsupported operator {op!r}")
    succ = lts.successors
    out: List[Mutant] = []
    next_id = 1
    for loc in lts.locations:
        if loc in lts.terminals:
            continue
        info = lts.info(loc)
        outs = succ[loc]
        for name in ops:
            if info.kind == "branch":
                variants = _branch_variants(name, loc, outs)
            elif name == "SDL" and info.kind not in ("assign", "output"):
                continue  # deleting a call binding would not be a statement deletion
            else:
                src, gc, dst = outs[0]
                variants = _straightline_variants(name, loc, gc, src, dst)
            for label, old_frag, new_frag, repl in variants:
                out.append(Mutant(
                    id=next_id, operator=label, loc=loc, pos=info.pos,
                    original=old_frag, mutated=new_frag, replacement=repl,
                ))
                next_id += 1
    return out


def apply_mutant(lts: Lts, mutant: Mutant) -> Lts:
    """The standalone mutant program: the transitions out of the mutation
    point swapped for the replacements, everything else shared."""
    kept = [t for t in lts.transitions if t[0] != mutant.loc]
    return lts.replace(transitions=tuple(kept) + mutant.replacement)


# ---------------------------------------------------------------------------
# TCE-lite
# ---------------------------------------------------------------------------


def _row(transition: Transition) -> tuple:
    """A transition's row of the normal form: its ends, the printed normal
    forms of its guard, update terms and output term, and those of all
    their divisors other than nonzero literals.  Normalization may erase a
    division (`0 * (x / x)` is 0, `x < x && ...` false), but the transition
    still errors where the divisor is zero."""
    src, gc, dst = transition
    guard = T.normalize_bool(gc.guard)
    # identity updates (v = v) are no-ops and must not mask duplicates
    update = tuple(sorted(
        (v, T._sort_key(norm)) for v, e in gc.update
        if (norm := T.normalize_int(e)) != Var(v)))
    emit = T._sort_key(T.normalize_int(gc.emit)) if gc.emit is not None else ""
    exprs = [gc.guard, *(e for _, e in gc.update)] + ([gc.emit] if gc.emit is not None else [])
    divisors = {T._sort_key(d) for e in exprs for d in map(T.normalize_int, T.divisors(e))
                if not (isinstance(d, Lit) and d.value != 0)}
    return (src, dst, T._sort_key(guard), update, emit, tuple(sorted(divisors)))


def _normal_form(lts: Lts, printed: Optional[Dict[Transition, tuple]] = None) -> str:
    """Canonical serialization after algebraic normalization of every guard,
    update term, and output term: the sorted rows of the transitions, as
    `repr` prints the list.  `printed` memoizes each transition's row and
    its `repr`."""
    printed = {} if printed is None else printed
    for t in lts.transitions:
        if t not in printed:
            row = _row(t)
            printed[t] = row, repr(row)
    rows = sorted(map(printed.get, lts.transitions))
    return "[" + ", ".join([text for _, text in rows]) + "]"


def tce_filter(lts: Lts, mutants: Sequence[Mutant]) -> TceReport:
    # a transition that the original and mutants share is printed once
    printed: Dict[Transition, tuple] = {}
    original = _normal_form(lts, printed)
    forms = {m.id: _normal_form(apply_mutant(lts, m), printed) for m in mutants}
    equivalent = tuple(sorted(i for i, f in forms.items() if f == original))
    by_form: Dict[str, List[int]] = {}
    for i, f in sorted(forms.items()):
        if f != original:
            by_form.setdefault(f, []).append(i)
    groups = tuple(tuple(ids) for f, ids in sorted(by_form.items()) if len(ids) >= 2)
    grouped = {i for g in groups for i in g}
    surviving = tuple(sorted(i for i in forms if i not in grouped and forms[i] != original))
    return TceReport(equivalent=equivalent, duplicate_groups=groups, surviving=surviving)


# ---------------------------------------------------------------------------
# Meta-mutant
# ---------------------------------------------------------------------------


def build_meta_mutant(lts: Lts, mutants: Sequence[Mutant]) -> MetaMutant:
    ids = [m.id for m in mutants]
    if len(ids) != len(set(ids)):
        raise IdCollision("duplicate mutant IDs")
    if 0 in ids:
        raise IdCollision("mutant ID 0 is reserved for the original")
    return MetaMutant(base=lts, index=tuple(sorted((m.id, m) for m in mutants)))


# ---------------------------------------------------------------------------
# Exports
# ---------------------------------------------------------------------------


def mutants_tsv(mutants: Sequence[Mutant]) -> str:
    lines = ["id\toperator\tline\tcolumn\toriginal\tmutated"]
    for m in mutants:
        lines.append(f"{m.id}\t{m.operator}\t{m.pos[0]}\t{m.pos[1]}\t{m.original}\t{m.mutated}")
    return "\n".join(lines) + "\n"


def tce_tsv(report: TceReport, mutants: Sequence[Mutant]) -> str:
    cls: Dict[int, str] = {}
    for i in report.equivalent:
        cls[i] = "equivalent"
    for g in report.duplicate_groups:
        for i in g:
            cls[i] = f"duplicate(rep={g[0]})"
    for i in report.surviving:
        cls[i] = "surviving"
    lines = ["id\toperator\tline\tcolumn\toriginal\tmutated\tclass"]
    for m in mutants:
        lines.append(
            f"{m.id}\t{m.operator}\t{m.pos[0]}\t{m.pos[1]}\t{m.original}\t{m.mutated}\t{cls[m.id]}"
        )
    return "\n".join(lines) + "\n"
