"""Lowering of MiniImp programs to a guarded-command labeled transition
system, plus the static distance-to-output metric.

Every executable statement becomes exactly one control location:

* assignments, outputs and calls get a single outgoing transition (guard
  true) carrying the variable update and/or an emitted output term;
* if/while statements become branching locations with two outgoing
  transitions whose guards are syntactic complements;
* one distinguished terminal location is appended per program exit (MiniImp
  programs have a single exit, the end of ``main``).

Location IDs are dense integers assigned in source order starting at 1; the
terminal gets the highest ID.  Function calls are inlined with a bounded
depth; each inline instance renames the callee's parameters and locals.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from . import parser as P
from . import terms as T
from .terms import And, BoolTerm, Cmp, IntTerm, Lit, Var

MUT_ID = "mutId"  # selector variable added by the meta-mutant builder


class LoweringError(Exception):
    pass


class InliningDepthExceeded(LoweringError):
    pass


@dataclass(frozen=True)
class GuardedCommand:
    """A transition label [g]f, optionally emitting one output value.

    ``update`` maps a subset of the program variables to integer terms
    (identity elsewhere); ``emit`` is the term appended to the output stream
    when the transition fires, or None.
    """

    guard: BoolTerm = T.TRUE
    update: Tuple[Tuple[str, IntTerm], ...] = ()
    emit: Optional[IntTerm] = None


Transition = Tuple[int, GuardedCommand, int]


@dataclass(frozen=True)
class LocInfo:
    kind: str  # 'assign' | 'output' | 'branch' | 'call' | 'terminal'
    pos: P.Pos


@dataclass(frozen=True)
class Lts:
    locations: Tuple[int, ...]
    entry: int
    terminals: frozenset
    variables: Tuple[str, ...]  # all program variables, inputs included
    inputs: Tuple[Tuple[str, Tuple[int, int]], ...]  # name -> inclusive domain
    transitions: Tuple[Transition, ...]
    loc_info: Tuple[Tuple[int, LocInfo], ...]

    @property
    def input_domains(self) -> Dict[str, Tuple[int, int]]:
        return dict(self.inputs)

    def info(self, loc: int) -> LocInfo:
        return self._loc_info[loc]

    @cached_property
    def _loc_info(self) -> Dict[int, LocInfo]:
        return dict(self.loc_info)

    def eval0(self) -> BoolTerm:
        """Initial predicate: conjunction of the input-domain bounds."""
        bounds = []
        for name, (lo, hi) in self.inputs:
            bounds.append(Cmp(">=", Var(name), Lit(lo)))
            bounds.append(Cmp("<=", Var(name), Lit(hi)))
        return T.conj(bounds)

    @cached_property
    def successors(self) -> Dict[int, List[Transition]]:
        """Outgoing transitions per location, in transition order."""
        out: Dict[int, List[Transition]] = {loc: [] for loc in self.locations}
        for t in self.transitions:
            out[t[0]].append(t)
        return out


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


def _renamed(t, rename: Dict[str, Var]):
    """``t`` with an inlined callee's parameters and locals renamed to their
    instance's variables; ``main``'s names are its own."""
    return T.subst(t, rename) if rename else t


class _Lowerer:
    def __init__(self, ast: P.Ast, inline_depth: int):
        self.ast = ast
        self.inline_depth = inline_depth
        self.next_loc = 1
        self.instance = 0
        self.transitions: List[Transition] = []
        self.loc_info: Dict[int, LocInfo] = {}
        self.variables: List[str] = [d.name for d in ast.inputs]

    def alloc(self, info: LocInfo) -> int:
        loc = self.next_loc
        self.next_loc += 1
        self.loc_info[loc] = info
        return loc

    def add_var(self, name: str):
        if name not in self.variables:
            self.variables.append(name)

    def lower(self) -> Lts:
        main = self.ast.function(self.ast.entry)
        # pre-scan so the terminal gets the highest ID: lower the body first
        # against a placeholder terminal, then patch.
        body_entry, tail_patches = self._lower_block(main.body, {}, depth=0)
        terminal = self.alloc(LocInfo("terminal", (0, 0)))
        transitions = [
            (src, gc, terminal if dst is None else dst) for (src, gc, dst) in self.transitions
        ]
        entry = body_entry if body_entry is not None else terminal
        return Lts(
            locations=tuple(range(1, self.next_loc)),
            entry=entry,
            terminals=frozenset({terminal}),
            variables=tuple(self.variables),
            inputs=tuple((d.name, (d.lo, d.hi)) for d in self.ast.inputs),
            transitions=tuple(transitions),
            loc_info=tuple(sorted(self.loc_info.items())),
        )

    def _lower_block(self, stmts, rename: Dict[str, Var], depth: int):
        """Lower a statement list.  Returns (entry location or None if the
        block is empty of executable statements, patch function) where
        transitions to the block's successor use dst=None placeholders that
        the caller rewires via `_patch`."""
        entry = None
        # pending: transition indices whose destination is the next statement
        pending: List[int] = []

        def emit(src: int, gc: GuardedCommand, dst) -> int:
            self.transitions.append((src, gc, dst))
            return len(self.transitions) - 1

        def patch(indices: List[int], dst: int):
            for i in indices:
                src, gc, _ = self.transitions[i]
                self.transitions[i] = (src, gc, dst)

        for s in stmts:
            first, last_pending = self._lower_stmt(s, rename, depth, emit)
            if first is None:
                continue  # pure declaration, no location
            if entry is None:
                entry = first
            patch(pending, first)
            pending = last_pending
        return entry, pending

    def _lower_stmt(self, s, rename: Dict[str, Var], depth: int, emit):
        if isinstance(s, P.SVarDecl):
            name = _renamed(Var(s.name), rename).name
            self.add_var(name)
            if s.init is None:
                return None, []
            loc = self.alloc(LocInfo("assign", s.pos))
            gc = GuardedCommand(update=((name, _renamed(s.init, rename)),))
            return loc, [emit(loc, gc, None)]
        if isinstance(s, P.SAssign):
            name = _renamed(Var(s.name), rename).name
            self.add_var(name)
            loc = self.alloc(LocInfo("assign", s.pos))
            gc = GuardedCommand(update=((name, _renamed(s.expr, rename)),))
            return loc, [emit(loc, gc, None)]
        if isinstance(s, P.SOutput):
            loc = self.alloc(LocInfo("output", s.pos))
            gc = GuardedCommand(emit=_renamed(s.expr, rename))
            return loc, [emit(loc, gc, None)]
        if isinstance(s, P.SIf):
            loc = self.alloc(LocInfo("branch", s.pos))
            g = _renamed(s.cond, rename)
            then_entry, then_pending = self._lower_block(s.then, rename, depth)
            else_entry, else_pending = self._lower_block(s.els, rename, depth)
            pending = list(then_pending) + list(else_pending)
            i_then = emit(loc, GuardedCommand(guard=g), then_entry)
            i_else = emit(loc, GuardedCommand(guard=T.negate(g)), else_entry)
            if then_entry is None:
                pending.append(i_then)
            if else_entry is None:
                pending.append(i_else)
            return loc, pending
        if isinstance(s, P.SWhile):
            loc = self.alloc(LocInfo("branch", s.pos))
            g = _renamed(s.cond, rename)
            body_entry, body_pending = self._lower_block(s.body, rename, depth)
            # back edge: the body's fallthrough returns to the loop head
            for i in body_pending:
                src, gc, _ = self.transitions[i]
                self.transitions[i] = (src, gc, loc)
            emit(loc, GuardedCommand(guard=g), body_entry if body_entry is not None else loc)
            i_exit = emit(loc, GuardedCommand(guard=T.negate(g)), None)
            return loc, [i_exit]
        if isinstance(s, P.SCall):
            if depth >= self.inline_depth:
                raise InliningDepthExceeded(
                    f"call to {s.fn!r} at {s.pos} exceeds inlining depth {self.inline_depth}"
                )
            fn = self.ast.function(s.fn)
            self.instance += 1
            inner = {
                local: Var(f"{s.fn}@{self.instance}.{local}")
                for local in fn.params + _declared_locals(fn.body)
            }
            for v in inner.values():
                self.add_var(v.name)
            loc = self.alloc(LocInfo("call", s.pos))
            update = tuple(
                (inner[p].name, _renamed(a, rename)) for p, a in zip(fn.params, s.args)
            )
            i_bind = emit(loc, GuardedCommand(update=update), None)
            body_entry, body_pending = self._lower_block(fn.body, inner, depth + 1)
            if body_entry is None:
                return loc, [i_bind]
            src, gc, _ = self.transitions[i_bind]
            self.transitions[i_bind] = (src, gc, body_entry)
            return loc, body_pending
        raise LoweringError(f"unsupported statement: {s!r}")


def _declared_locals(stmts) -> tuple:
    out = []
    for s in stmts:
        if isinstance(s, P.SVarDecl):
            out.append(s.name)
        elif isinstance(s, P.SIf):
            out.extend(_declared_locals(s.then))
            out.extend(_declared_locals(s.els))
        elif isinstance(s, P.SWhile):
            out.extend(_declared_locals(s.body))
    return tuple(out)


def lower_to_lts(ast: P.Ast, inline_depth: int = 8) -> Lts:
    """Lower a checked Ast to its transition system.

    Raises InliningDepthExceeded when (mutually) recursive calls exceed
    ``inline_depth`` and LoweringError on unsupported statements.
    """
    return _Lowerer(ast, inline_depth).lower()


def lower_text(text: str, origin: str = "<inline>", inline_depth: int = 8) -> Lts:
    return lower_to_lts(P.parse_text(text, origin), inline_depth)


# ---------------------------------------------------------------------------
# Distance to output (for the MDO branch-selection strategy)
# ---------------------------------------------------------------------------


def distance_to_output(lts: Lts) -> Dict[int, Optional[int]]:
    """Exact shortest distance (in transitions) from each location to any
    terminal, by reverse breadth-first traversal.  Locations that cannot
    reach a terminal map to None."""
    preds: Dict[int, List[int]] = {loc: [] for loc in lts.locations}
    for src, _, dst in lts.transitions:
        preds[dst].append(src)
    dist: Dict[int, Optional[int]] = {loc: None for loc in lts.locations}
    queue = deque()
    for t in sorted(lts.terminals):
        dist[t] = 0
        queue.append(t)
    while queue:
        loc = queue.popleft()
        for p in preds[loc]:
            if dist[p] is None:
                dist[p] = dist[loc] + 1
                queue.append(p)
    return dist


# ---------------------------------------------------------------------------
# Structural validation
# ---------------------------------------------------------------------------


class LtsInvariantError(Exception):
    pass


def _exclusive(g1: BoolTerm, g2: BoolTerm) -> bool:
    """Syntactic mutual-exclusion check: complements, or conjunction that
    normalizes to false (covers mutId selector guards)."""
    if T.normalize_bool(g2) == T.normalize_bool(T.negate(g1)):
        return True
    return T.normalize_bool(And((g1, g2))) == T.FALSE


def validate_lts(lts: Lts, max_fanout: Optional[int] = 2) -> None:
    """Check the structural invariants; raises LtsInvariantError.

    ``max_fanout`` bounds outgoing transitions per location (2 for lowered
    programs; pass None for meta-mutants, which branch per mutant)."""
    locset = set(lts.locations)
    if lts.entry not in locset:
        raise LtsInvariantError("entry location missing")
    if not lts.terminals <= locset:
        raise LtsInvariantError("terminal location missing")
    succ = lts.successors
    varset = set(lts.variables)
    # reachability from entry
    seen = {lts.entry}
    queue = deque([lts.entry])
    while queue:
        loc = queue.popleft()
        for _, _, dst in succ[loc]:
            if dst not in seen:
                seen.add(dst)
                queue.append(dst)
    if seen != locset:
        raise LtsInvariantError(f"unreachable locations: {sorted(locset - seen)}")
    for loc in lts.locations:
        outs = succ[loc]
        if loc in lts.terminals:
            if outs:
                raise LtsInvariantError(f"terminal {loc} has outgoing transitions")
            continue
        if not outs:
            raise LtsInvariantError(f"non-terminal {loc} has no outgoing transitions")
        if max_fanout is not None and len(outs) > max_fanout:
            raise LtsInvariantError(f"location {loc} has {len(outs)} outgoing transitions")
        for _, gc, dst in outs:
            if dst not in locset:
                raise LtsInvariantError(f"transition target {dst} not a location")
            used = T.variables(gc.guard)
            for name, term in gc.update:
                used |= {name} | T.variables(term)
            if gc.emit is not None:
                used |= T.variables(gc.emit)
            if not used <= varset:
                raise LtsInvariantError(f"unknown variables at {loc}: {sorted(used - varset)}")
            names = [name for name, _ in gc.update]
            if len(names) != len(set(names)):
                raise LtsInvariantError(f"double assignment at {loc}")
        for i in range(len(outs)):
            for j in range(i + 1, len(outs)):
                if not _exclusive(outs[i][1].guard, outs[j][1].guard):
                    raise LtsInvariantError(
                        f"guards at {loc} not provably mutually exclusive"
                    )
