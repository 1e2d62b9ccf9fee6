"""Integer/boolean term trees shared by the front end, the symbolic engine
and the constraint solver.

Terms are immutable and hashable, so they can be used directly as dict keys
(monomial atoms during normalization) and serialized deterministically for
duplicate detection.

Arithmetic is over exact mathematical integers.  Division and modulo use
truncated-toward-zero semantics (like C); dividing by zero raises
:class:`EvalError` during evaluation.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Union


class EvalError(Exception):
    """Raised on runtime evaluation errors (division or modulo by zero)."""


# ---------------------------------------------------------------------------
# Term node types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Lit:
    value: int


@dataclass(frozen=True)
class Var:
    name: str


@dataclass(frozen=True)
class Bin:
    op: str  # one of + - * / %
    left: "IntTerm"
    right: "IntTerm"


@dataclass(frozen=True)
class Neg:
    operand: "IntTerm"


@dataclass(frozen=True)
class BoolLit:
    value: bool


@dataclass(frozen=True)
class Cmp:
    op: str  # one of < <= > >= == !=
    left: "IntTerm"
    right: "IntTerm"


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Not:
    operand: "BoolTerm"


IntTerm = Union[Lit, Var, Bin, Neg]
BoolTerm = Union[BoolLit, Cmp, And, Or, Not]
Term = Union[IntTerm, BoolTerm]

TRUE = BoolLit(True)
FALSE = BoolLit(False)

ARITH_OPS = ("+", "-", "*", "/", "%")
CMP_OPS = ("<", "<=", ">", ">=", "==", "!=")

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
    return a - trunc_div(a, b) * b


def eval_int(t: IntTerm, env: Mapping[str, int]) -> int:
    """Evaluate an integer term under a concrete valuation.

    Raises :class:`EvalError` on division/modulo by zero and KeyError on an
    unbound variable.
    """
    if isinstance(t, Lit):
        return t.value
    if isinstance(t, Var):
        return env[t.name]
    if isinstance(t, Neg):
        return -eval_int(t.operand, env)
    if isinstance(t, Bin):
        a = eval_int(t.left, env)
        b = eval_int(t.right, env)
        if t.op == "+":
            return a + b
        if t.op == "-":
            return a - b
        if t.op == "*":
            return a * b
        if t.op == "/":
            return trunc_div(a, b)
        if t.op == "%":
            return trunc_mod(a, b)
    raise TypeError(f"not an integer term: {t!r}")


def _cmp(op: str, a: int, b: int) -> bool:
    if op == "<":
        return a < b
    if op == "<=":
        return a <= b
    if op == ">":
        return a > b
    if op == ">=":
        return a >= b
    if op == "==":
        return a == b
    if op == "!=":
        return a != b
    raise ValueError(op)


def eval_bool(t: BoolTerm, env: Mapping[str, int]) -> bool:
    """Evaluate a boolean term under a concrete valuation (errors propagate)."""
    if isinstance(t, BoolLit):
        return t.value
    if isinstance(t, Cmp):
        return _cmp(t.op, eval_int(t.left, env), eval_int(t.right, env))
    if isinstance(t, Not):
        return not eval_bool(t.operand, env)
    if isinstance(t, And):
        return all(eval_bool(x, env) for x in t.items)
    if isinstance(t, Or):
        return any(eval_bool(x, env) for x in t.items)
    raise TypeError(f"not a boolean term: {t!r}")


def holds(t: BoolTerm, env: Mapping[str, int]) -> bool:
    """Constraint-style evaluation: a comparison whose evaluation divides by
    zero counts as false (the corresponding concrete execution errors out and
    is handled by the error-output path, not the solver)."""
    if isinstance(t, BoolLit):
        return t.value
    if isinstance(t, Cmp):
        try:
            return _cmp(t.op, eval_int(t.left, env), eval_int(t.right, env))
        except EvalError:
            return False
    if isinstance(t, Not):
        return not holds(t.operand, env)
    if isinstance(t, And):
        return all(holds(x, env) for x in t.items)
    if isinstance(t, Or):
        return any(holds(x, env) for x in t.items)
    raise TypeError(f"not a boolean term: {t!r}")


# ---------------------------------------------------------------------------
# Substitution and inspection
# ---------------------------------------------------------------------------


def subst(t: Term, mapping: Mapping[str, IntTerm]) -> Term:
    """Replace variables by integer terms throughout ``t``."""
    if isinstance(t, Lit) or isinstance(t, BoolLit):
        return t
    if isinstance(t, Var):
        return mapping.get(t.name, t)
    if isinstance(t, Neg):
        return Neg(subst(t.operand, mapping))
    if isinstance(t, Bin):
        return Bin(t.op, subst(t.left, mapping), subst(t.right, mapping))
    if isinstance(t, Cmp):
        return Cmp(t.op, subst(t.left, mapping), subst(t.right, mapping))
    if isinstance(t, Not):
        return Not(subst(t.operand, mapping))
    if isinstance(t, And):
        return And(tuple(subst(x, mapping) for x in t.items))
    if isinstance(t, Or):
        return Or(tuple(subst(x, mapping) for x in t.items))
    raise TypeError(f"not a term: {t!r}")


def variables(t: Term) -> frozenset:
    if isinstance(t, Var):
        return frozenset((t.name,))
    if isinstance(t, (Lit, BoolLit)):
        return frozenset()
    if isinstance(t, (Neg, Not)):
        return variables(t.operand)
    if isinstance(t, (Bin, Cmp)):
        return variables(t.left) | variables(t.right)
    if isinstance(t, (And, Or)):
        out = frozenset()
        for x in t.items:
            out |= variables(x)
        return out
    raise TypeError(f"not a term: {t!r}")


def divisors(t: Term) -> list:
    """All divisor/modulus subterms of ``t`` (for error-path splitting),
    in deterministic preorder."""
    out = []

    def walk(u):
        if isinstance(u, Bin):
            walk(u.left)
            walk(u.right)
            if u.op in ("/", "%"):
                out.append(u.right)
        elif isinstance(u, (Neg, Not)):
            walk(u.operand)
        elif isinstance(u, Cmp):
            walk(u.left)
            walk(u.right)
        elif isinstance(u, (And, Or)):
            for x in u.items:
                walk(x)

    walk(t)
    return out


def has_division(t: Term) -> bool:
    if isinstance(t, Bin):
        return t.op in ("/", "%") or has_division(t.left) or has_division(t.right)
    if isinstance(t, (Neg, Not)):
        return has_division(t.operand)
    if isinstance(t, Cmp):
        return has_division(t.left) or has_division(t.right)
    if isinstance(t, (And, Or)):
        return any(has_division(x) for x in t.items)
    return False


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


def _sort_key(t: Term) -> str:
    return repr(t)


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


# terms are immutable and the produced polynomials are never mutated, so
# the normalization pipeline can be memoized wholesale; path conditions in
# the symbolic engine re-normalize the same conjuncts thousands of times
@functools.lru_cache(maxsize=1 << 16)
def _to_poly(t: IntTerm) -> _Poly:
    if isinstance(t, Lit):
        return _Poly.const(t.value)
    if isinstance(t, Var):
        return _Poly.atom(t)
    if isinstance(t, Neg):
        return -_to_poly(t.operand)
    if isinstance(t, Bin):
        if t.op == "+":
            return _to_poly(t.left) + _to_poly(t.right)
        if t.op == "-":
            return _to_poly(t.left) - _to_poly(t.right)
        if t.op == "*":
            return _to_poly(t.left) * _to_poly(t.right)
        # division/modulo: fold constants, otherwise keep as opaque atom
        left = normalize_int(t.left)
        right = normalize_int(t.right)
        if isinstance(left, Lit) and isinstance(right, Lit) and right.value != 0:
            if t.op == "/":
                return _Poly.const(trunc_div(left.value, right.value))
            return _Poly.const(trunc_mod(left.value, right.value))
        if t.op == "/" and isinstance(right, Lit) and right.value == 1:
            return _to_poly(left)
        return _Poly.atom(Bin(t.op, left, right))
    raise TypeError(f"not an integer term: {t!r}")


def normalize_int(t: IntTerm) -> IntTerm:
    """Canonical form of an integer term (sound for exact integers)."""
    return _to_poly(t).to_term()


@functools.lru_cache(maxsize=1 << 16)
def _normalize_cmp(op: str, left: IntTerm, right: IntTerm) -> BoolTerm:
    core = _normalize_cmp_shape(op, left, right)
    if not (has_division(left) or has_division(right)):
        return core
    # a division that cancels out or folds away (x/y - x/y, 0 * (x/y)) still
    # makes the comparison false where its divisor is zero: keep that guard
    kept = set(divisors(core))
    guards = [Cmp("!=", d, Lit(0)) for d in dict.fromkeys(
        normalize_int(d) for d in divisors(left) + divisors(right)) if d not in kept]
    return normalize_bool(conj(guards + [core])) if guards else core


def _normalize_cmp_shape(op: str, left: IntTerm, right: IntTerm) -> BoolTerm:
    diff = _to_poly(left) - _to_poly(right)
    c = diff.constant_value()
    # Deciding a comparison outright is only sound when no division can occur
    # while evaluating it (div-by-zero paths are observable errors).
    safe = not diff.has_div_atom() and not has_division(left) and not has_division(right)
    if c is not None and safe:
        return BoolLit(_cmp(op, c, 0))
    # canonical shape: p < 0, p == 0 or p != 0
    if op == ">":
        return _normalize_cmp_shape("<", right, left)
    if op == ">=":
        return _normalize_cmp_shape("<=", right, left)
    if op == "<=":
        diff = diff - _Poly.const(1)  # p <= 0  <=>  p - 1 < 0 over integers
        op = "<"
    elif op == "<":
        pass
    if op in ("==", "!="):
        g = diff.content()
        if g > 1:
            diff = _Poly({m: c_ // g for m, c_ in diff.coeffs.items()})
        if diff.leading_sign() < 0:
            diff = -diff
        c2 = diff.constant_value()
        if c2 is not None and safe:
            return BoolLit(_cmp(op, c2, 0))
        return Cmp(op, diff.to_term(), Lit(0))
    # strict less-than: divide by positive content when it divides the
    # constant as well (sound: k*p + c < 0 with k | c  <=>  p + c/k < 0)
    g = math.gcd(*(abs(c_) for c_ in diff.coeffs.values())) if diff.coeffs else 0
    if g > 1:
        diff = _Poly({m: c_ // g for m, c_ in diff.coeffs.items()})
    c2 = diff.constant_value()
    if c2 is not None and safe:
        return BoolLit(c2 < 0)
    return Cmp("<", diff.to_term(), Lit(0))


@functools.lru_cache(maxsize=1 << 14)
def _norm_negate(t: BoolTerm) -> BoolTerm:
    return normalize_bool(negate(t))


@functools.lru_cache(maxsize=1 << 16)
def _contradicts(a: BoolTerm, b: BoolTerm) -> bool:
    """Cheap syntactic contradiction check on two normalized atoms.
    Normalized comparisons have the shape `p < 0`, `p == 0`, `p != 0`."""
    if a == _norm_negate(b):
        return True
    if isinstance(a, Not) and a.operand == b:
        return True
    if isinstance(b, Not) and b.operand == a:
        return True
    if not (isinstance(a, Cmp) and isinstance(b, Cmp)):
        return False
    pa, pb = _to_poly(a.left), _to_poly(b.left)
    if a.op == "==" and b.op == "==":
        # p == 0 and p + k == 0 with k != 0
        d = (pa - pb).constant_value()
        if d is not None and d != 0:
            return True
    if a.op == "<" and b.op == "<":
        # p < 0 and q < 0 over integers force p + q <= -2
        d = (pa + pb).constant_value()
        if d is not None and d >= -1:
            return True
    if {a.op, b.op} == {"<", "=="}:
        lt, eq = (pa, pb) if a.op == "<" else (pb, pa)
        # q == 0 pins p to a constant; p < 0 then needs that constant < 0
        for d in ((lt - eq).constant_value(), (lt + eq).constant_value()):
            if d is not None and d >= 0:
                return True
    return False


@functools.lru_cache(maxsize=1 << 16)
def normalize_bool(t: BoolTerm) -> BoolTerm:
    """Canonical (negation-normal, flattened, sorted) form of a boolean term.

    Equisatisfiable and model-preserving: the result is logically equivalent
    to the input under constraint-style evaluation.
    """
    if isinstance(t, BoolLit):
        return t
    if isinstance(t, Cmp):
        return _normalize_cmp(t.op, t.left, t.right)
    if isinstance(t, Not):
        inner = normalize_bool(t.operand)
        neg = negate(inner)
        if isinstance(neg, Not):
            return neg
        return normalize_bool(neg)
    if isinstance(t, (And, Or)):
        is_and = isinstance(t, And)
        absorb = FALSE if is_and else TRUE
        identity = TRUE if is_and else FALSE
        flat = []
        for x in t.items:
            nx = normalize_bool(x)
            if nx == absorb:
                return absorb
            if nx == identity:
                continue
            if isinstance(nx, And if is_and else Or):
                flat.extend(nx.items)
            else:
                flat.append(nx)
        seen = []
        for x in flat:
            if x not in seen:
                seen.append(x)
        if is_and:
            for i, a in enumerate(seen):
                for b in seen[i + 1:]:
                    if _contradicts(a, b):
                        return FALSE
        seen.sort(key=_sort_key)
        if not seen:
            return identity
        if len(seen) == 1:
            return seen[0]
        return And(tuple(seen)) if is_and else Or(tuple(seen))
    raise TypeError(f"not a boolean term: {t!r}")
