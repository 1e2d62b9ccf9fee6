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

import dataclasses
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Sequence, Tuple

from . import terms as T
from .lts import GuardedCommand, Lts, Transition, MUT_ID
from .terms import And, Bin, Cmp, Lit, Neg, Not, Or, Var

SUPPORTED_OPERATORS = ("AOR", "CRP", "LCR", "RHS", "ROR", "SDL")


class UnknownOperator(Exception):
    pass


class IdCollision(Exception):
    pass


@dataclass(frozen=True)
class Mutant:
    id: int
    operator: str  # e.g. "ROR:<-><="
    loc: int
    pos: Tuple[int, int]
    original: str  # source fragment before mutation
    mutated: str  # source fragment after mutation
    removed: Tuple[Transition, ...]
    replacement: Tuple[Transition, ...]


@dataclass(frozen=True)
class MetaMutant:
    """Single merged program; `mutId` (never written by program statements)
    selects the original (0) or one mutant (its ID)."""

    lts: Lts  # extended with the mutId selector variable
    base: Lts
    index: Tuple[Tuple[int, Mutant], ...]
    points: Tuple[Tuple[int, Tuple[int, ...]], ...]  # location -> mutant IDs

    @cached_property
    def mutants(self) -> Dict[int, Mutant]:
        return dict(self.index)

    @cached_property
    def mutation_points(self) -> Dict[int, Tuple[int, ...]]:
        return dict(self.points)

    def mutant_ids(self) -> Tuple[int, ...]:
        return tuple(i for i, _ in self.index)

    @cached_property
    def _programs(self) -> Dict[int, Lts]:
        return {}

    @cached_property
    def _original_transitions(self) -> List[Optional[Transition]]:
        """The meta transitions under `mutId := 0` (None where dropped)."""
        return [_select(t, 0) for t in self.lts.transitions]

    def program(self, mut_id: int) -> Lts:
        """The selector-free program that the meta-mutant runs under
        `mutId == mut_id`: the base program's variables and locations, and
        the meta transitions with the selector folded away (cached)."""
        prog = self._programs.get(mut_id)
        if prog is None:
            # only the mutant's own mutation point compares the selector
            # with its ID; everywhere else it selects as for the original
            at = self.mutants[mut_id].loc if mut_id else None
            selected = (_select(t, mut_id) if t[0] == at else t0
                        for t, t0 in zip(self.lts.transitions, self._original_transitions))
            prog = self._programs[mut_id] = dataclasses.replace(
                self.base, transitions=tuple(t for t in selected if t is not None))
        return prog


@dataclass(frozen=True)
class TceReport:
    equivalent: Tuple[int, ...]  # normal form identical to the original's
    duplicate_groups: Tuple[Tuple[int, ...], ...]  # size >= 2, sorted
    surviving: Tuple[int, ...]

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

    def child(attr, sub):
        for new_sub, old_node, new_node in _rewrites(sub, rewriter):
            out.append((dataclasses.replace(t, **{attr: new_sub}), old_node, new_node))

    if isinstance(t, (Neg, Not)):
        child("operand", t.operand)
    elif isinstance(t, (Bin, Cmp)):
        child("left", t.left)
        child("right", t.right)
    elif isinstance(t, (And, Or)):
        for i, sub in enumerate(t.items):
            for new_sub, old_node, new_node in _rewrites(sub, rewriter):
                items = t.items[:i] + (new_sub,) + t.items[i + 1:]
                out.append((dataclasses.replace(t, items=items), old_node, new_node))
    return out


def _aor(node):
    if isinstance(node, Bin):
        return [dataclasses.replace(node, op=op) for op in T.ARITH_OPS if op != node.op]
    return []


def _ror(node):
    if isinstance(node, Cmp):
        return [dataclasses.replace(node, op=op) for op in T.CMP_OPS if op != node.op]
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
                       ((src, dataclasses.replace(gc, update=upd), dst),))
        if gc.emit is not None:
            for new_term, old_n, new_n in _rewrites(gc.emit, rw):
                yield (_label(name, old_n, new_n), T.render(old_n), T.render(new_n),
                       ((src, dataclasses.replace(gc, emit=new_term), dst),))
    elif name == "RHS":
        for i, (var, term) in enumerate(gc.update):
            for delta in (Bin("+", term, Lit(1)), Bin("-", term, Lit(1))):
                upd = gc.update[:i] + ((var, delta),) + gc.update[i + 1:]
                yield (_label("RHS", term, delta), T.render(term), T.render(delta),
                       ((src, dataclasses.replace(gc, update=upd), dst),))
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
               ((s1, dataclasses.replace(gc1, guard=new_guard), d1),
                (s2, dataclasses.replace(gc2, guard=T.negate(new_guard)), d2)))


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
                    original=old_frag, mutated=new_frag,
                    removed=tuple(outs) if info.kind == "branch" else (outs[0],),
                    replacement=repl,
                ))
                next_id += 1
    return out


def apply_mutant(lts: Lts, mutant: Mutant) -> Lts:
    """The standalone mutant program: removed transitions swapped for the
    replacements, everything else shared."""
    removed = set(mutant.removed)
    kept = [t for t in lts.transitions if t not in removed]
    return dataclasses.replace(lts, transitions=tuple(kept) + mutant.replacement)


# ---------------------------------------------------------------------------
# TCE-lite
# ---------------------------------------------------------------------------


def _normal_form(lts: Lts) -> str:
    """Canonical serialization after algebraic normalization of every guard,
    update term, and output term."""
    rows = []
    for src, gc, dst in lts.transitions:
        guard = T.normalize_bool(gc.guard)
        # identity updates (v = v) are no-ops and must not mask duplicates
        update = tuple(sorted(
            (v, repr(norm)) for v, e in gc.update
            if (norm := T.normalize_int(e)) != Var(v)))
        emit = repr(T.normalize_int(gc.emit)) if gc.emit is not None else ""
        rows.append((src, dst, repr(guard), update, emit))
    rows.sort()
    return repr(rows)


def tce_filter(lts: Lts, mutants: Sequence[Mutant]) -> TceReport:
    original = _normal_form(lts)
    forms: Dict[int, str] = {m.id: _normal_form(apply_mutant(lts, m)) for m in mutants}
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
    points: Dict[int, List[int]] = {}
    for m in mutants:
        srcs = {t[0] for t in m.removed}
        if len(srcs) != 1:
            raise IdCollision(f"mutant {m.id} spans multiple locations")
        points.setdefault(next(iter(srcs)), []).append(m.id)
    for v in points.values():
        v.sort()
    sel = Var(MUT_ID)
    index = {m.id: m for m in mutants}
    transitions: List[Transition] = []
    for t in lts.transitions:
        # original transition: active unless a mutant owning it is selected
        transitions.append(_selected_by(t, [
            Cmp("!=", sel, Lit(mid)) for mid in points.get(t[0], [])
            if t in index[mid].removed]))
    for loc, mids in sorted(points.items()):
        for mid in mids:  # ascending-ID branch order
            transitions.extend(_selected_by(t, [Cmp("==", sel, Lit(mid))])
                               for t in index[mid].replacement)
    meta_lts = dataclasses.replace(
        lts,
        variables=lts.variables + (MUT_ID,),
        transitions=tuple(transitions),
    )
    return MetaMutant(
        lts=meta_lts, base=lts,
        index=tuple(sorted(index.items())),
        points=tuple(sorted((loc, tuple(mids)) for loc, mids in points.items())),
    )


def _selected_by(transition: Transition, selectors: List[Cmp]) -> Transition:
    """`transition` with its guard preceded by the selector comparisons, so
    that a run for another mutant evaluates nothing of the guard."""
    if not selectors:
        return transition
    src, gc, dst = transition
    guard = T.conj(selectors + ([] if gc.guard == T.TRUE else [gc.guard]))
    return src, dataclasses.replace(gc, guard=guard), dst


def _select(transition: Transition, mut_id: int) -> Optional[Transition]:
    """`transition` under `mutId := mut_id`: None when one of the selector
    comparisons that lead its guard is false, else the transition with them
    stripped (the very tuple when it has none)."""
    src, gc, dst = transition
    items = gc.guard.items if isinstance(gc.guard, And) else (gc.guard,)
    n = 0
    while n < len(items) and isinstance(items[n], Cmp) and items[n].left == Var(MUT_ID):
        if not T.eval_bool(items[n], {MUT_ID: mut_id}):
            return None
        n += 1
    if n == 0:
        return transition
    return src, dataclasses.replace(gc, guard=T.conj(items[n:])), dst


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
