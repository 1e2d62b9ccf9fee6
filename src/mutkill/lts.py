"""Lowering of MiniImp programs to a labeled transition system in which
each location makes one move, plus the static distance-to-output metric.

Every executable statement becomes exactly one control location:

* assignments, outputs and calls make a `Step`: the variable update and/or
  an emitted output term, then one destination;
* if/while statements make a `Branch` on their condition: control goes to
  one of two destinations and nothing is updated or emitted; the else arm
  is taken where the guard fails, a condition that only the symbolic
  engine builds;
* one distinguished terminal location, with no move, is appended per
  program exit (MiniImp programs have a single exit, the end of ``main``).

Location IDs are dense integers assigned in source order starting at 1; the
terminal gets the highest ID.  Function calls are inlined with a bounded
depth; each inline instance renames the callee's parameters and locals.
"""

from __future__ import annotations

from collections import deque
from functools import cached_property
from typing import Dict, List, Optional, Tuple, Union

from . import parser as P
from . import terms as T
from .record import Record
from .terms import Var


class LoweringError(Exception):
    pass


class InliningDepthExceeded(LoweringError):
    pass


class Step(Record):
    """The move of a location that is not a branch: ``update`` maps a
    subset of the program variables to integer terms, as (name, term)
    pairs (identity elsewhere); ``emit`` is the term appended to the output
    stream, or None; control then goes to ``dst``."""

    __slots__ = ("update", "emit", "dst")


class Branch(Record):
    """The move of a branching location: control goes to ``then`` where
    ``guard`` holds and to ``els`` where it fails."""

    __slots__ = ("guard", "then", "els")


Move = Union[Step, Branch]


def targets(move: Move) -> Tuple[int, ...]:
    """A move's destinations, a branch's `then` first."""
    return (move.then, move.els) if isinstance(move, Branch) else (move.dst,)


class LocInfo(Record):
    # kind: 'assign' | 'output' | 'branch' | 'call' | 'terminal'
    __slots__ = ("kind", "pos")


class Lts(Record):
    """`variables` are all program variables, inputs included; `inputs`
    pairs each input with its inclusive domain; `moves` pairs each
    non-terminal location with its move, and `loc_info` each location
    with its LocInfo."""

    # no slots: the cached properties below live in the instance's dict
    _fields = ("locations", "entry", "terminals", "variables", "inputs",
               "moves", "loc_info")

    def info(self, loc: int) -> LocInfo:
        return self._loc_info[loc]

    def move(self, loc: int) -> Move:
        return self._moves[loc]

    @cached_property
    def _loc_info(self) -> Dict[int, LocInfo]:
        return dict(self.loc_info)

    @cached_property
    def _moves(self) -> Dict[int, Move]:
        return dict(self.moves)


# ---------------------------------------------------------------------------
# Lowering
# ---------------------------------------------------------------------------


class _Lowerer:
    def __init__(self, ast: P.Ast, inline_depth: int):
        self.ast = ast
        self.inline_depth = inline_depth
        self.next_loc = 1
        self.instance = 0
        self.moves: Dict[int, Move] = {}
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

    def patch(self, pending: List[Tuple[int, str]], dst: int) -> None:
        """Point each pending (location, field) destination to `dst`."""
        for loc, field in pending:
            self.moves[loc] = self.moves[loc].replace(**{field: dst})

    def step(self, loc: int, update=(), emit=None) -> List[Tuple[int, str]]:
        """Give `loc` a step whose destination is pending."""
        self.moves[loc] = Step(update, emit, None)
        return [(loc, "dst")]

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
            moves=tuple(sorted(self.moves.items())),
            loc_info=tuple(sorted(self.loc_info.items())),
        )

    def _lower_block(self, stmts, rename: Dict[str, Var], depth: int):
        """Lower a statement list.  Returns (entry location, or None if the
        block has no executable statement; the (location, field) pairs of
        the destinations that lead to the block's successor, None until the
        caller patches them)."""
        entry = None
        pending: List[Tuple[int, str]] = []
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
        if isinstance(s, (P.SVarDecl, P.SAssign)):
            name = T.subst(Var(s.name), rename).name
            self.add_var(name)
            expr = s.init if isinstance(s, P.SVarDecl) else s.expr
            if expr is None:
                return None, []
            loc = self.alloc(LocInfo("assign", s.pos))
            return loc, self.step(loc, update=((name, T.subst(expr, rename)),))
        if isinstance(s, P.SOutput):
            loc = self.alloc(LocInfo("output", s.pos))
            return loc, self.step(loc, emit=T.subst(s.expr, rename))
        if isinstance(s, P.SIf):
            loc = self.alloc(LocInfo("branch", s.pos))
            then_entry, then_pending = self._lower_block(s.then, rename, depth)
            else_entry, else_pending = self._lower_block(s.els, rename, depth)
            self.moves[loc] = Branch(T.subst(s.cond, rename), then_entry, else_entry)
            pending = then_pending + else_pending
            if then_entry is None:
                pending.append((loc, "then"))
            if else_entry is None:
                pending.append((loc, "els"))
            return loc, pending
        if isinstance(s, P.SWhile):
            loc = self.alloc(LocInfo("branch", s.pos))
            body_entry, body_pending = self._lower_block(s.body, rename, depth)
            # back edge: the body's fallthrough returns to the loop head
            self.moves[loc] = Branch(T.subst(s.cond, rename),
                                     body_entry if body_entry is not None else loc, None)
            self.patch(body_pending, loc)
            return loc, [(loc, "els")]
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
            bind = self.step(loc, update=tuple(
                (inner[p].name, T.subst(a, rename)) for p, a in zip(fn.params, s.args)))
            body_entry, body_pending = self._lower_block(fn.body, inner, depth + 1)
            if body_entry is None:
                return loc, bind
            self.patch(bind, body_entry)
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
    """Exact shortest distance (in moves) from each location to any
    terminal, by reverse breadth-first traversal.  Locations that cannot
    reach a terminal map to None."""
    preds: Dict[int, List[int]] = {loc: [] for loc in lts.locations}
    for src, move in lts.moves:
        for dst in targets(move):
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
