"""Integer/boolean term trees shared by the front end, the symbolic engine
and the constraint solver.

Terms are immutable and interned (hash-consed): constructing a node returns
the one node with its class and fields, so structurally equal terms are the
same object, equality is identity and hashing is O(1) however deep the term.
The intern table, like the memos of normalization, keeps every node for the
life of the process.  A node's variables, and whether it divides, are
computed when it is built, from those of its `_subterms`, the one walk over
a node's shape (`with_subterms` rebuilds a node from new ones); its
divisors, normal form and sort key from its subterms' when first asked,
once.  Terms can be used directly as dict keys (monomial atoms during
normalization) and as `functools.cache` arguments.  Their `repr` is their
sort key, the dataclass `repr` `Name(field=value, ...)` built without a
Python frame per level, and normalization orders conjuncts and monomial
atoms by it, so sorting, and the serialization used for duplicate
detection, is deterministic and does not depend on which terms a process
built before.

Arithmetic is over exact mathematical integers.  Division and modulo use
truncated-toward-zero semantics (like C); dividing by zero raises
:class:`EvalError` during evaluation.  `ARITH` and `COMPARE` give each
operator's meaning, to evaluation, normalization and the solver alike.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Callable, Dict, Iterable, List, Mapping, Sequence, Union

from .record import Record


class EvalError(Exception):
    """Raised on runtime evaluation errors (division or modulo by zero)."""


# ---------------------------------------------------------------------------
# Term node types
# ---------------------------------------------------------------------------
#
# The intern table maps (class, *fields) to the node and keeps it for the
# life of the process, as the normalization memos keep the terms they were
# given.  A node's children are interned before it, so its key hashes and
# compares them by identity: one lookup costs the same at any depth.


_TABLE: Dict[tuple, "_Node"] = {}
_NO_VARS: frozenset = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    """`a | b`, reusing `a` or `b` where it holds the other."""
    return a if b <= a else b if a <= b else a | b


class _Node(Record):
    """Interned construction, shared by the node classes below.

    Nodes compare and hash by identity (`object`'s methods) and take their
    frozenness, `replace` and `__reduce__` from `Record`, so replacing,
    pickling and copying rebuild through the table.  `_vars` holds the
    node's variables and `_divides` whether it divides, computed when it is
    built from those of its `_subterms`: a `Var` has its own name, and a
    `Bin` with `/` or `%` divides.  `_key` holds its sort key once
    `_sort_key` has asked, and that key is its `repr`: the record one, built
    without a Python frame per level."""

    __slots__ = ("_vars", "_divides", "_key")
    _fields = ()
    # a literal's key includes its value's type: 1 == True, but Lit(1) and
    # Lit(True) print differently, so they must stay two nodes
    _typed = False
    __eq__ = object.__eq__
    __hash__ = object.__hash__
    __init__ = object.__init__  # `__new__` sets the fields

    def __new__(cls, *args, **named):
        if named or len(args) != len(cls._fields):
            args = cls._complete(args, named)
        key = (cls, *args, type(args[0])) if cls._typed else (cls, *args)
        node = _TABLE.get(key)
        if node is None:
            node = object.__new__(cls)
            for f, value in zip(cls._fields, args):
                object.__setattr__(node, f, value)
            names, divides = _NO_VARS, cls is Bin and args[0] in ("/", "%")
            for kid in _subterms(node):
                names = _union(names, kid._vars)
                divides |= kid._divides
            object.__setattr__(node, "_vars", frozenset(args) if cls is Var else names)
            object.__setattr__(node, "_divides", divides)
            object.__setattr__(node, "_key", None)
            _TABLE[key] = node
        return node


class Lit(_Node):
    __slots__ = ("value",)
    _typed = True


class Var(_Node):
    __slots__ = ("name",)


class Bin(_Node):
    __slots__ = ("op", "left", "right")  # op: one of + - * / %


class Neg(_Node):
    __slots__ = ("operand",)


class BoolLit(_Node):
    __slots__ = ("value",)
    _typed = True


class Cmp(_Node):
    __slots__ = ("op", "left", "right")  # op: one of < <= > >= == !=


class And(_Node):
    __slots__ = ("items",)


class Or(_Node):
    __slots__ = ("items",)


class Not(_Node):
    __slots__ = ("operand",)


IntTerm = Union[Lit, Var, Bin, Neg]
BoolTerm = Union[BoolLit, Cmp, And, Or, Not]
Term = Union[IntTerm, BoolTerm]


def _subterms(t: Term) -> tuple:
    """The children of `t`, in field order: the one walk over a node's
    shape that structural code uses (`with_subterms` is its inverse)."""
    if isinstance(t, (Bin, Cmp)):
        return t.left, t.right
    if isinstance(t, (Neg, Not)):
        return (t.operand,)
    if isinstance(t, (And, Or)):
        return t.items
    return ()


def with_subterms(t: Term, kids: Sequence[Term]) -> Term:
    """The node of `t`'s class and other fields whose `_subterms` are
    `kids`."""
    if isinstance(t, (Bin, Cmp)):
        return type(t)(t.op, *kids)
    if isinstance(t, (Neg, Not)):
        return type(t)(*kids)
    if isinstance(t, (And, Or)):
        return type(t)(tuple(kids))
    return t


TRUE = BoolLit(True)
FALSE = BoolLit(False)

_CMP_NEG = {"<": ">=", "<=": ">", ">": "<=", ">=": "<", "==": "!=", "!=": "=="}


def conj(items: Iterable[BoolTerm]) -> BoolTerm:
    items = tuple(items)
    if not items:
        return TRUE
    if len(items) == 1:
        return items[0]
    return And(items)


def disj(items: Iterable[BoolTerm]) -> BoolTerm:
    items = tuple(items)
    if not items:
        return FALSE
    if len(items) == 1:
        return items[0]
    return Or(items)


def negate(t: BoolTerm) -> BoolTerm:
    if isinstance(t, BoolLit):
        return BoolLit(not t.value)
    if isinstance(t, Not):
        return t.operand
    if isinstance(t, Cmp):
        # flipping the operator is wrong for divide-by-zero valuations, where
        # the comparison and its flip are both false; keep those negations
        # opaque so `holds` can give Not its recursive meaning
        if has_division(t):
            return Not(t)
        return Cmp(_CMP_NEG[t.op], t.left, t.right)
    if isinstance(t, And):
        return Or(tuple(negate(x) for x in t.items))
    if isinstance(t, Or):
        return And(tuple(negate(x) for x in t.items))
    return Not(t)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def trunc_div(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("division by zero")
    q = abs(a) // abs(b)
    return q if (a >= 0) == (b >= 0) else -q


def trunc_mod(a: int, b: int) -> int:
    if b == 0:
        raise EvalError("modulo by zero")
    # a - trunc_div(a, b) * b: the remainder takes the dividend's sign
    r = abs(a) % abs(b)
    return r if a >= 0 else -r


# the operators' semantics, in the order mutant IDs follow
ARITH = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "/": trunc_div, "%": trunc_mod}
COMPARE = {"<": operator.lt, "<=": operator.le, ">": operator.gt,
           ">=": operator.ge, "==": operator.eq, "!=": operator.ne}
ARITH_OPS = tuple(ARITH)
CMP_OPS = tuple(COMPARE)


_DIGITS = bytes.maketrans(b"\x00\x01", b"01")  # truth values as binary digits


def column_evaluator(doms: Sequence[tuple]) -> Callable:
    """`value(t, memo)` over `doms`, sorted (name, inclusive (lo, hi))
    pairs: an integer term's column, its values at the points of the
    product of `doms` in `itertools.product` order, None where evaluating
    it divides by zero; a boolean term's truth set, those points as a
    bitmask, bit i for the i-th point, at which it holds.  A comparison is
    false where either side divides by zero.  Both come from the values of
    the term's subterms in `memo` (see `_bottom_up`)."""
    sizes = [hi - lo + 1 for _, (lo, hi) in doms]
    count = math.prod(sizes)
    everywhere = (1 << count) - 1
    names = [n for n, _ in doms]

    def value(t: Term, memo: dict):
        # only a term that divides has None in its column
        if isinstance(t, And):
            return functools.reduce(operator.and_, map(memo.__getitem__, t.items), everywhere)
        if isinstance(t, Cmp):
            left, right = memo[t.left], memo[t.right]
            fn = COMPARE[t.op]
            if t._divides:
                truth = [a is not None and b is not None and fn(a, b)
                         for a, b in zip(left, right)]
            else:
                truth = map(fn, left, right)
            # one byte per point, 0 or 1, read as binary digits, last point first
            return int(bytes(truth).translate(_DIGITS)[::-1], 2)
        if isinstance(t, Bin):
            left, right = memo[t.left], memo[t.right]
            fn = ARITH[t.op]
            if t._divides:
                divides = t.op in ("/", "%")
                return tuple(None if a is None or b is None or divides and b == 0 else fn(a, b)
                             for a, b in zip(left, right))
            return tuple(map(fn, left, right))
        if isinstance(t, Lit):
            return (t.value,) * count
        if isinstance(t, Var):
            k = names.index(t.name)
            lo, hi = doms[k][1]
            inner, outer = math.prod(sizes[k + 1:]), math.prod(sizes[:k])
            return tuple([v for v in range(lo, hi + 1) for _ in range(inner)] * outer)
        if isinstance(t, Neg):
            if t._divides:
                return tuple(None if a is None else -a for a in memo[t.operand])
            return tuple(map(operator.neg, memo[t.operand]))
        if isinstance(t, Or):
            return functools.reduce(operator.or_, map(memo.__getitem__, t.items), 0)
        if isinstance(t, Not):
            return everywhere ^ memo[t.operand]
        if isinstance(t, BoolLit):
            return everywhere if t.value else 0
        raise TypeError(f"not a term: {t!r}")

    return value


_evaluator = functools.cache(column_evaluator)


def truth_set(c: BoolTerm, doms: Sequence[tuple]) -> int:
    """The points of the product of `doms` at which `c` holds, as a bitmask
    (`column_evaluator`).  A subterm's values over `doms` are a fact of the
    node, like its divisors, computed once per domains: so a path that grows
    by a guard costs the guard's truth set and one AND with the path's."""
    return _bottom_up(_evaluator(doms), c)


def holds(t: BoolTerm, env: Mapping[str, int]) -> bool:
    """Constraint-style evaluation: a comparison whose evaluation divides by
    zero counts as false (the corresponding concrete execution errors out and
    is handled by the error-output path, not the solver).  `env` must bind
    every variable of `t`.  This is the `truth_set` at the one point `env`,
    with no short-circuit: a later call at that point reuses every subterm
    that an earlier one evaluated, such as a prefix that two paths share."""
    return truth_set(t, tuple(sorted((name, (v, v)) for name, v in env.items()))) == 1


# ---------------------------------------------------------------------------
# Substitution and inspection
# ---------------------------------------------------------------------------


def subst(t: Term, mapping: Mapping[str, IntTerm]) -> Term:
    """Replace variables by integer terms throughout ``t``."""
    if t._vars.isdisjoint(mapping):
        return t
    if isinstance(t, Var):
        return mapping[t.name]
    return with_subterms(t, [subst(u, mapping) for u in _subterms(t)])


def variables(t: Term) -> frozenset:
    """The names of the variables in ``t`` (computed when ``t`` was built)."""
    return t._vars


# Facts about a node (its divisors, its polynomial) are each computed once,
# from its subterms' facts.  A walk that meets a node without one gives it
# one post-order on an explicit stack, so a term of any depth costs a few
# Python frames; the memo it consults is what tells it where to stop.


@functools.cache
def _memo(fact) -> dict:
    """node -> `fact`'s value, for every node a walk has given it; kept, like
    the caches in front of it, until `cache_clear`."""
    return {}


def _bottom_up(fact, t: Term, subterms=_subterms, memo=None):
    """The value `fact(t, memo)` for `t`, where `fact` builds a node's value
    from the values in `memo` (by default `_memo(fact)`) of its `subterms`;
    those without one get theirs first."""
    if memo is None:
        memo = _memo(fact)
    stack = [t]
    while stack:
        u = stack[-1]
        if u in memo:
            stack.pop()
            continue
        missing = [c for c in subterms(u) if c not in memo]
        if missing:
            stack.extend(missing)
        else:
            memo[stack.pop()] = fact(u, memo)
    return memo[t]


def _subterms_that_divide(t: Term) -> list:
    return [u for u in _subterms(t) if u._divides]


def _divisors_of(t: Term, memo: dict) -> tuple:
    out = ()
    for u in _subterms_that_divide(t):
        out += memo[u]
    return out + (t.right,) if isinstance(t, Bin) and t.op in ("/", "%") else out


def divisors(t: Term) -> tuple:
    """All divisor/modulus subterms of ``t`` (for error-path splitting), in
    post-order: a divisor follows the divisors inside its dividend and
    inside itself, and items keep their order."""
    return _bottom_up(_divisors_of, t, _subterms_that_divide) if t._divides else ()


@functools.cache
def reached_divisors(t: Term) -> tuple:
    """Each divisor of ``t`` in evaluation order (`divisors`), paired with
    its reach: the conditions, read as a conjunction, under which
    evaluating ``t`` gets to it.  Under `&&` an item is reached where the
    items before it hold, under `||` where they fail; `!` passes its
    operand's conditions through, and arithmetic adds none."""
    if isinstance(t, (And, Or)) and t._divides:
        out, before = [], ()
        for x in t.items:
            out += [(d, before + reach) for d, reach in reached_divisors(x)]
            before += (x if isinstance(t, And) else negate(x),)
        return tuple(out)
    if isinstance(t, Not):
        return reached_divisors(t.operand)
    return tuple((d, ()) for d in divisors(t))


def has_division(t: Term) -> bool:
    """Whether ``t`` divides or takes a modulus (computed when ``t`` was
    built)."""
    return t._divides


# ---------------------------------------------------------------------------
# Compilation to Python
# ---------------------------------------------------------------------------
#
# Replay and the solver's large enumerations run terms as generated Python
# rather than walking the tree once per evaluation.

# CPython's parser allows 200 nested parentheses; each term node opens at
# most one, so a subterm deeper than this gets a function of its own
_MAX_NESTING = 50


class Source:
    """Python source of functions that evaluate terms.

    Variables are read from Python locals, named by `local` (variable name
    -> local name).  A generated helper takes the locals of just the
    variables its subterm reads, so a call to it is valid wherever those
    are bound.

    Expressions evaluate as the concrete program does: operands left to
    right, `and`/`or` short-circuiting, EvalError on a zero divisor.  In
    `constraint` mode a comparison that divides is instead a helper that is
    False where it raises EvalError, which is the meaning `holds` gives it:
    no comparison raises, so conjuncts may be tested in any order."""

    def __init__(self, local: Mapping[str, str], constraint: bool = False) -> None:
        self.local = local
        self.constraint = constraint
        self.defs: List[str] = []
        self.helpers = itertools.count()

    def define(self, head: str, body: Sequence[str]) -> None:
        self.defs.append(f"def {head}:\n" + "".join(f"    {line}\n" for line in body))

    def functions(self, filename: str) -> dict:
        """The namespace in which the defined functions were executed."""
        scope = {"_div": trunc_div, "_mod": trunc_mod, "EvalError": EvalError,
                 "_product": itertools.product}
        exec(compile("".join(self.defs), filename, "exec"), scope)
        return scope

    def _helper(self, t: Term, body: Sequence[str]) -> str:
        """Define a function of `t`'s variables with `body`; its call."""
        args = ", ".join(self.local[n] for n in sorted(variables(t)))
        name = f"_h{next(self.helpers)}"
        self.define(f"{name}({args})", body)
        return f"{name}({args})"

    def expr(self, t: Term, depth: int = 0) -> str:
        """A Python expression for `t`, `depth` parentheses deep."""
        if depth > _MAX_NESTING:
            return self._helper(t, [f"return {self.expr(t)}"])
        d = depth + 1
        if isinstance(t, (Lit, BoolLit)):
            return f"({t.value!r})"
        if isinstance(t, Var):
            return self.local[t.name]
        if isinstance(t, Neg):
            return f"(-{self.expr(t.operand, d)})"
        if isinstance(t, Not):
            return f"(not {self.expr(t.operand, d)})"
        if isinstance(t, Bin) and t.op in ("/", "%"):
            fn = "_div" if t.op == "/" else "_mod"
            return f"{fn}({self.expr(t.left, d)}, {self.expr(t.right, d)})"
        if isinstance(t, (Bin, Cmp)):
            # in constraint mode a comparison that divides is a helper, whose
            # body starts a new nesting
            helper = self.constraint and isinstance(t, Cmp) and has_division(t)
            d = 1 if helper else d
            infix = f"({self.expr(t.left, d)} {t.op} {self.expr(t.right, d)})"
            if not helper:
                return infix
            return self._helper(t, ["try:", f"    return {infix}",
                                    "except EvalError:", "    return False"])
        if isinstance(t, (And, Or)):
            joint = " and " if isinstance(t, And) else " or "
            return "(" + joint.join(self.expr(x, d) for x in t.items) + ")"
        raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Pretty printing (infix, for mutant labels and reports)
# ---------------------------------------------------------------------------

_PREC = {"||": 1, "&&": 2, "cmp": 3, "+": 4, "-": 4, "*": 5, "/": 5, "%": 5}


def render(t: Term) -> str:
    return _render(t, 0)


def _render(t: Term, parent_prec: int) -> str:
    if isinstance(t, Lit):
        return str(t.value)
    if isinstance(t, Var):
        return t.name
    if isinstance(t, BoolLit):
        return "true" if t.value else "false"
    if isinstance(t, Neg):
        return f"-{_render(t.operand, 6)}"
    if isinstance(t, Not):
        return f"!{_render(t.operand, 6)}"
    if isinstance(t, Bin):
        p = _PREC[t.op]
        s = f"{_render(t.left, p)} {t.op} {_render(t.right, p + 1)}"
        return f"({s})" if p < parent_prec else s
    if isinstance(t, Cmp):
        p = _PREC["cmp"]
        s = f"{_render(t.left, p + 1)} {t.op} {_render(t.right, p + 1)}"
        return f"({s})" if p < parent_prec else s
    if isinstance(t, And):
        p = _PREC["&&"]
        s = " && ".join(_render(x, p + 1) for x in t.items)
        return f"({s})" if p < parent_prec else s
    if isinstance(t, Or):
        p = _PREC["||"]
        s = " || ".join(_render(x, p + 1) for x in t.items)
        return f"({s})" if p < parent_prec else s
    raise TypeError(f"not a term: {t!r}")


# ---------------------------------------------------------------------------
# Normalization
# ---------------------------------------------------------------------------
#
# Integer terms are normalized to a canonical sum-of-monomials form where a
# monomial is a product of "atoms": variables, or opaque division/modulo
# subterms (with normalized operands).  Boolean terms are normalized to
# negation normal form with flattened, sorted, deduplicated connectives, and
# comparisons rewritten to `poly REL 0` shape.  Equal normal forms imply
# semantic equivalence; the reverse does not hold.


def _field_key(value) -> str:
    """The `repr` of a node's field, from its subterms' sort keys."""
    if isinstance(value, _Node):
        return value._key
    if isinstance(value, tuple):
        keys = [x._key for x in value]
        return f"({', '.join(keys)}{',' if len(keys) == 1 else ''})"
    return repr(value)


def _sort_key(t: Term) -> str:
    """The record `repr` of `t`, `Name(field=value, ...)`, computed once per
    node from its subterms' keys, post-order on an explicit stack (the record
    `repr` recurses once per level); it is the nodes' `repr`."""
    if t._key is None:
        stack = [t]
        while stack:
            u = stack[-1]
            missing = [c for c in _subterms(u) if c._key is None]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            if u._key is None:  # a subterm met twice gets its key once
                fields = ", ".join(f"{f}={_field_key(getattr(u, f))}" for f in u._shown)
                object.__setattr__(u, "_key", f"{type(u).__qualname__}({fields})")
    return t._key


_Node.__repr__ = _sort_key


def _mono_key(m: tuple) -> tuple:
    return tuple(_sort_key(a) for a in m)


class _Poly:
    """Polynomial over atoms: mapping monomial -> integer coefficient.

    A monomial is a sorted tuple of atom terms; the empty tuple is the
    constant monomial.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = dict(coeffs or {})

    @classmethod
    def const(cls, c: int) -> "_Poly":
        return cls({(): c} if c else {})

    @classmethod
    def atom(cls, a: Term) -> "_Poly":
        return cls({(a,): 1})

    def __add__(self, other: "_Poly") -> "_Poly":
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            c2 = out.get(m, 0) + c
            if c2:
                out[m] = c2
            else:
                out.pop(m, None)
        return _Poly(out)

    def __neg__(self) -> "_Poly":
        return _Poly({m: -c for m, c in self.coeffs.items()})

    def __sub__(self, other: "_Poly") -> "_Poly":
        return self + (-other)

    def __mul__(self, other: "_Poly") -> "_Poly":
        out: dict = {}
        for m1, c1 in self.coeffs.items():
            for m2, c2 in other.coeffs.items():
                m = tuple(sorted(m1 + m2, key=_sort_key))
                c = out.get(m, 0) + c1 * c2
                if c:
                    out[m] = c
                else:
                    out.pop(m, None)
        return _Poly(out)

    def constant_value(self):
        """The constant if the polynomial is constant, else None."""
        if not self.coeffs:
            return 0
        if len(self.coeffs) == 1 and () in self.coeffs:
            return self.coeffs[()]
        return None

    def has_div_atom(self) -> bool:
        return any(
            has_division(a) for m in self.coeffs for a in m
        )

    def content(self) -> int:
        """gcd of all coefficients (0 for the zero polynomial)."""
        g = 0
        for c in self.coeffs.values():
            g = math.gcd(g, abs(c))
        return g

    def leading_sign(self) -> int:
        """Sign of the coefficient of the smallest non-constant monomial
        (by sort order); 0 if constant."""
        best = None
        for m in self.coeffs:
            if m == ():
                continue
            if best is None or _mono_key(m) < _mono_key(best):
                best = m
        if best is None:
            return 0
        return 1 if self.coeffs[best] > 0 else -1

    def to_term(self) -> IntTerm:
        """Rebuild a canonical term: constant first, then monomials in sorted
        order, combined left-to-right with + / -."""
        if not self.coeffs:
            return Lit(0)
        parts = []
        items = sorted(self.coeffs.items(),
                       key=lambda kv: (0,) if kv[0] == () else (1, _mono_key(kv[0])))
        for m, c in items:
            if m == ():
                parts.append((c, Lit(abs(c))))
                continue
            factor: IntTerm = m[0]
            for a in m[1:]:
                factor = Bin("*", factor, a)
            if abs(c) != 1:
                factor = Bin("*", Lit(abs(c)), factor)
            parts.append((c, factor))
        sign, term = parts[0]
        if sign < 0 and isinstance(term, Lit):
            term = Lit(-term.value)
        elif sign < 0:
            term = Neg(term)
        for c, sub in parts[1:]:
            term = Bin("+" if c > 0 else "-", term, sub)
        return term


def _poly_of(t: IntTerm, memo: dict) -> _Poly:
    if isinstance(t, Lit):
        return _Poly.const(t.value)
    if isinstance(t, Var):
        return _Poly.atom(t)
    if isinstance(t, Neg):
        return -memo[t.operand]
    if isinstance(t, Bin):
        if t.op not in ("/", "%"):
            return ARITH[t.op](memo[t.left], memo[t.right])
        # division/modulo: fold constants, otherwise keep as opaque atom
        left = normalize_int(t.left)
        right = normalize_int(t.right)
        if isinstance(left, Lit) and isinstance(right, Lit) and right.value != 0:
            return _Poly.const(ARITH[t.op](left.value, right.value))
        if t.op == "/" and isinstance(right, Lit) and right.value == 1:
            return _to_poly(left)
        return _Poly.atom(Bin(t.op, left, right))
    raise TypeError(f"not an integer term: {t!r}")


# terms are immutable and the produced polynomials are never mutated, so
# the normalization pipeline can be memoized wholesale; path conditions in
# the symbolic engine re-normalize the same conjuncts thousands of times
@functools.cache
def _to_poly(t: IntTerm) -> _Poly:
    return _bottom_up(_poly_of, t)


@functools.cache
def normalize_int(t: IntTerm) -> IntTerm:
    """Canonical form of an integer term (sound for exact integers)."""
    return _to_poly(t).to_term()


def _normalize_cmp_shape(op: str, left: IntTerm, right: IntTerm) -> BoolTerm:
    diff = _to_poly(left) - _to_poly(right)
    c = diff.constant_value()
    # Deciding a comparison outright is only sound when no division can occur
    # while evaluating it (div-by-zero paths are observable errors).
    safe = not diff.has_div_atom() and not has_division(left) and not has_division(right)
    if c is not None and safe:
        return BoolLit(COMPARE[op](c, 0))
    # canonical shape: p < 0, p == 0 or p != 0
    if op == ">":
        return _normalize_cmp_shape("<", right, left)
    if op == ">=":
        return _normalize_cmp_shape("<=", right, left)
    if op == "<=":
        diff = diff - _Poly.const(1)  # p <= 0  <=>  p - 1 < 0 over integers
        op = "<"
    # divide by the content, which divides the constant as well (sound for
    # `<`: k*p + c < 0 with k | c  <=>  p + c/k < 0); an (in)equation also
    # takes the sign that makes its leading coefficient positive
    g = diff.content()
    if g > 1:
        diff = _Poly({m: c_ // g for m, c_ in diff.coeffs.items()})
    if op != "<" and diff.leading_sign() < 0:
        diff = -diff
    return Cmp(op, diff.to_term(), Lit(0))


@functools.cache
def normalize_bool(t: BoolTerm) -> BoolTerm:
    """Canonical (negation-normal, flattened, sorted, deduplicated) form of a
    boolean term.

    Model-preserving: the result holds exactly where the input does under
    constraint-style evaluation.  It only canonicalizes: a connective folds
    to a literal through an absorbing item, never by finding that its items
    contradict, so `x < 0 && x > 0` stays a conjunction, and deciding it is
    the solver's.
    """
    if isinstance(t, BoolLit):
        return t
    if isinstance(t, Cmp):
        core = _normalize_cmp_shape(t.op, t.left, t.right)
        if not has_division(t):
            return core
        # a division that cancels out or folds away (x/y - x/y, 0 * (x/y))
        # still makes the comparison false where its divisor is zero: keep
        # that guard
        kept = set(divisors(core))
        guards = [Cmp("!=", d, Lit(0)) for d in dict.fromkeys(
            normalize_int(d) for d in divisors(t)) if d not in kept]
        return normalize_bool(conj(guards + [core])) if guards else core
    if isinstance(t, Not):
        inner = normalize_bool(t.operand)
        neg = negate(inner)
        if isinstance(neg, Not):
            return neg
        return normalize_bool(neg)
    if isinstance(t, (And, Or)):
        node = type(t)
        absorb, identity = (FALSE, TRUE) if node is And else (TRUE, FALSE)
        items = []
        for x in t.items:
            nx = normalize_bool(x)
            if nx == absorb:
                return absorb
            if nx != identity:
                items.extend(nx.items if isinstance(nx, node) else (nx,))
        return (conj if node is And else disj)(sorted(dict.fromkeys(items), key=_sort_key))
    raise TypeError(f"not a boolean term: {t!r}")
