"""A fixed amount of Python work that does not depend on mutkill.

run.py times this script in fresh processes between the `mutkill` processes
of a run.  Its fastest reading measures how fast the machine ran during the
run, so the end-to-end times can be scaled to one reference speed.  Do not
change the work: the scaled figures of every earlier run assume it.
"""

import argparse  # noqa: F401  (same start-up imports as the mutkill CLI)
import dataclasses
import functools
import re  # noqa: F401


@dataclasses.dataclass(frozen=True)
class Node:
    op: str
    left: object
    right: object


@functools.lru_cache(maxsize=1 << 12)
def build(i: int, depth: int):
    if depth == 0:
        return ("x", i % 7)
    return Node("+" if i % 2 else "*", build(i + 1, depth - 1), build(i * 3 % 97, depth - 1))


def main() -> int:
    seen = {}
    for i in range(1000):
        if i % 50 == 0:
            build.cache_clear()
        t = build(i % 211, 6)
        seen[t] = seen.get(t, 0) + 1
    rows = sorted((hash(k) & 1023, v) for k, v in seen.items())
    return len(rows)


if __name__ == "__main__":
    main()
