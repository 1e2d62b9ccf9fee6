"""Lowering of MiniImp programs to a guarded-command labeled transition
system, plus the static distance-to-output metric.

Every executable statement becomes exactly one control location:

* assignments, outputs and calls get a single outgoing transition (guard
  true) carrying the variable update and/or an emitted output term;
* if/while statements become branching locations with two outgoing
  transitions that neither update nor emit, guarded by the condition and
  by its `terms.negate`; mutants keep this shape, and the symbolic engine
  and replay evaluate only the first guard;
* one distinguished terminal location is appended per program exit (MiniImp
  programs have a single exit, the end of ``main``).

Location IDs are dense integers assigned in source order starting at 1; the
terminal gets the highest ID.  Function calls are inlined with a bounded
depth; each inline instance renames the callee's parameters and locals.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Dict, List, Optional, Tuple

from . import parser as P
from . import terms as T
from .record import Record
from .terms import Var


class LoweringError(Exception):
    pass


class InliningDepthExceeded(LoweringError):
    pass


class GuardedCommand(Record):
    """A transition label [g]f, optionally emitting one output value.

    ``guard`` is a boolean term; ``update`` maps a subset of the program
    variables to integer terms, as (name, term) pairs (identity elsewhere);
    ``emit`` is the term appended to the output stream when the transition
    fires, or None.
    """

    __slots__ = ("guard", "update", "emit")
    _defaults = {"guard": T.TRUE, "update": (), "emit": None}


Transition = Tuple[int, GuardedCommand, int]


class LocInfo(Record):
    # kind: 'assign' | 'output' | 'branch' | 'call' | 'terminal'
    __slots__ = ("kind", "pos")


class Lts(Record):
    """`variables` are all program variables, inputs included; `inputs`
    pairs each input with its inclusive domain; `loc_info` pairs each
    location with its LocInfo."""

    # no slots: the cached properties below live in the instance's dict
    _fields = ("locations", "entry", "terminals", "variables", "inputs",
               "transitions", "loc_info")

    def info(self, loc: int) -> LocInfo:
        return self._loc_info[loc]

    @cached_property
    def _loc_info(self) -> Dict[int, LocInfo]:
        return dict(self.loc_info)

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

    def emit(self, src: int, gc: GuardedCommand, dst: Optional[int]) -> int:
        """Add a transition, whose destination None is patched later; its
        index."""
        self.transitions.append((src, gc, dst))
        return len(self.transitions) - 1

    def patch(self, indices: List[int], dst: int) -> None:
        """Point the transitions at `indices` to `dst`."""
        for i in indices:
            src, gc, _ = self.transitions[i]
            self.transitions[i] = (src, gc, dst)

    def lower(self) -> Lts:
        main = self.ast.function(self.ast.entry)
        # the terminal gets the highest ID: lower the body first, then patch
        # its fallthrough to the terminal
        body_entry, pending = self._lower_block(main.body, {}, depth=0)
        terminal = self.alloc(LocInfo("terminal", (0, 0)))
        self.patch(pending, terminal)
        return Lts(
            locations=tuple(range(1, self.next_loc)),
            entry=body_entry if body_entry is not None else terminal,
            terminals=frozenset({terminal}),
            variables=tuple(self.variables),
            inputs=tuple((d.name, (d.lo, d.hi)) for d in self.ast.inputs),
            transitions=tuple(self.transitions),
            loc_info=tuple(sorted(self.loc_info.items())),
        )

    def _lower_block(self, stmts, rename: Dict[str, Var], depth: int):
        """Lower a statement list.  Returns (entry location, or None if the
        block has no executable statement; the indices of the transitions
        to the block's successor, destination None until the caller patches
        them)."""
        entry = None
        # pending: transition indices whose destination is the next statement
        pending: List[int] = []
        for s in stmts:
            first, last_pending = self._lower_stmt(s, rename, depth)
            if first is None:
                continue  # pure declaration, no location
            if entry is None:
                entry = first
            self.patch(pending, first)
            pending = last_pending
        return entry, pending

    def _lower_stmt(self, s, rename: Dict[str, Var], depth: int):
        if isinstance(s, P.SVarDecl):
            name = T.subst(Var(s.name), rename).name
            self.add_var(name)
            if s.init is None:
                return None, []
            loc = self.alloc(LocInfo("assign", s.pos))
            gc = GuardedCommand(update=((name, T.subst(s.init, rename)),))
            return loc, [self.emit(loc, gc, None)]
        if isinstance(s, P.SAssign):
            name = T.subst(Var(s.name), rename).name
            self.add_var(name)
            loc = self.alloc(LocInfo("assign", s.pos))
            gc = GuardedCommand(update=((name, T.subst(s.expr, rename)),))
            return loc, [self.emit(loc, gc, None)]
        if isinstance(s, P.SOutput):
            loc = self.alloc(LocInfo("output", s.pos))
            gc = GuardedCommand(emit=T.subst(s.expr, rename))
            return loc, [self.emit(loc, gc, None)]
        if isinstance(s, P.SIf):
            loc = self.alloc(LocInfo("branch", s.pos))
            g = T.subst(s.cond, rename)
            then_entry, then_pending = self._lower_block(s.then, rename, depth)
            else_entry, else_pending = self._lower_block(s.els, rename, depth)
            pending = list(then_pending) + list(else_pending)
            i_then = self.emit(loc, GuardedCommand(guard=g), then_entry)
            i_else = self.emit(loc, GuardedCommand(guard=T.negate(g)), else_entry)
            if then_entry is None:
                pending.append(i_then)
            if else_entry is None:
                pending.append(i_else)
            return loc, pending
        if isinstance(s, P.SWhile):
            loc = self.alloc(LocInfo("branch", s.pos))
            g = T.subst(s.cond, rename)
            body_entry, body_pending = self._lower_block(s.body, rename, depth)
            # back edge: the body's fallthrough returns to the loop head
            self.patch(body_pending, loc)
            self.emit(loc, GuardedCommand(guard=g), body_entry if body_entry is not None else loc)
            i_exit = self.emit(loc, GuardedCommand(guard=T.negate(g)), None)
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
                (inner[p].name, T.subst(a, rename)) for p, a in zip(fn.params, s.args)
            )
            i_bind = self.emit(loc, GuardedCommand(update=update), None)
            body_entry, body_pending = self._lower_block(fn.body, inner, depth + 1)
            if body_entry is None:
                return loc, [i_bind]
            self.patch([i_bind], body_entry)
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
