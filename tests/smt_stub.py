#!/usr/bin/env python3
"""Tiny SMT-LIB v2 solver used to exercise the external-process backend.

Reads a script on stdin, answers sat/unsat on the first stdout line and a
get-value response on the next.  Decides by bounded enumeration over the
asserted interval bounds, so every declared symbol must be bounded by
(assert (>= x lo)) / (assert (<= x hi)) pairs, which is exactly the shape
the workbench emits.  Intentionally independent of the package under test.
"""

import itertools
import sys


def tokenize(text):
    out, i, n = [], 0, len(text)
    while i < n:
        c = text[i]
        if c in "()":
            out.append(c)
            i += 1
        elif c.isspace():
            i += 1
        elif c == ";":
            while i < n and text[i] != "\n":
                i += 1
        else:
            j = i
            while j < n and not text[j].isspace() and text[j] not in "();":
                j += 1
            out.append(text[i:j])
            i = j
    return out


def parse_all(tokens):
    pos = 0

    def read():
        nonlocal pos
        tok = tokens[pos]
        pos += 1
        if tok != "(":
            return tok
        items = []
        while tokens[pos] != ")":
            items.append(read())
        pos += 1
        return items

    forms = []
    while pos < len(tokens):
        forms.append(read())
    return forms


def ev_int(node, env):
    if isinstance(node, str):
        if node.lstrip("-").isdigit():
            return int(node)
        return env[node]
    op, args = node[0], node[1:]
    if op == "-" and len(args) == 1:
        return -ev_int(args[0], env)
    vals = [ev_int(a, env) for a in args]
    if op == "+":
        return sum(vals)
    if op == "-":
        return vals[0] - sum(vals[1:])
    if op == "*":
        r = 1
        for v in vals:
            r *= v
        return r
    if op in ("tdiv", "tmod"):
        a, b = vals
        if b == 0:
            raise ZeroDivisionError
        q = abs(a) // abs(b)
        q = q if (a >= 0) == (b >= 0) else -q
        return q if op == "tdiv" else a - b * q
    raise ValueError(f"unknown int op {op!r}")


def ev_bool(node, env):
    if node == "true":
        return True
    if node == "false":
        return False
    op, args = node[0], node[1:]
    if op == "and":
        return all(ev_bool(a, env) for a in args)
    if op == "or":
        return any(ev_bool(a, env) for a in args)
    if op == "not":
        return not ev_bool(args[0], env)
    if op == "ite":
        return ev_bool(args[1] if ev_bool(args[0], env) else args[2], env)
    try:
        vals = [ev_int(a, env) for a in args]
    except ZeroDivisionError:
        return False  # matches the workbench's constraint-evaluation rule
    if op == "=":
        return vals[0] == vals[1]
    if op == "<":
        return vals[0] < vals[1]
    if op == "<=":
        return vals[0] <= vals[1]
    if op == ">":
        return vals[0] > vals[1]
    if op == ">=":
        return vals[0] >= vals[1]
    raise ValueError(f"unknown bool op {op!r}")


def main():
    forms = parse_all(tokenize(sys.stdin.read()))
    symbols = []
    bounds = {}
    asserts = []
    wanted = []
    for f in forms:
        if not isinstance(f, list):
            continue
        head = f[0]
        if head == "declare-const":
            symbols.append(f[1])
        elif head == "assert":
            body = f[1]
            val = None
            if isinstance(body, list) and body[0] in (">=", "<=") \
                    and isinstance(body[1], str) and body[1] in symbols:
                try:
                    val = ev_int(body[2], {})
                except KeyError:
                    pass  # a symbol on the right: a constraint, not a bound
            if val is not None:
                lo, hi = bounds.get(body[1], (None, None))
                if body[0] == ">=":
                    lo = val if lo is None else max(lo, val)
                else:
                    hi = val if hi is None else min(hi, val)
                bounds[body[1]] = (lo, hi)
            asserts.append(body)
        elif head == "get-value":
            wanted = f[1]
    for s in symbols:
        lo, hi = bounds.get(s, (None, None))
        if lo is None or hi is None:
            print("unknown")
            return
    ranges = [range(bounds[s][0], bounds[s][1] + 1) for s in symbols]
    for values in itertools.product(*ranges):
        env = dict(zip(symbols, values))
        if all(ev_bool(a, env) for a in asserts):
            print("sat")
            if wanted:
                parts = []
                for name in wanted:
                    v = env[name]
                    parts.append(f"({name} {v})" if v >= 0
                                 else f"({name} (- {-v}))")
                print("(" + " ".join(parts) + ")")
            return
    print("unsat")


if __name__ == "__main__":
    main()
