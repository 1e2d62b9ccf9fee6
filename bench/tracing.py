"""Run `cli.run_pipeline` over one workload's programs in this (fresh)
process, optionally wrapping the public functions of each mutkill module to
record per-layer metrics and spans.

    python3 bench/tracing.py JOB.json [--trace]

JOB.json names the programs, their output directories, the configuration and
seed files, and where to write the result.  Without --trace the run only
times `run_pipeline`, which gives the untraced total that the tracing
overhead is measured against.

A wrapped function or result field that the program no longer has is
reported as absent, never raised.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, Optional

# (module, function, key, records a span).  Span keys are layer boundaries;
# the others are timed and counted only, since they run millions of times.
WRAPPED = (
    ("cli", "run_pipeline", "cli.total", True),
    ("parser", "parse_program", "parser.parse", True),
    ("lts", "lower_to_lts", "lts.lower", True),
    ("mutation", "generate_mutants", "mutation.generate", True),
    ("mutation", "tce_filter", "mutation.tce", True),
    ("mutation", "build_meta_mutant", "mutation.meta", True),
    ("symex", "explore", "symex.explore", True),
    ("interp", "compute_kill_matrix", "interp.matrix", True),
    ("interp", "greedy_minimize", "interp.minimize", True),
    ("solver", "is_satisfiable", "solver.query", False),
    ("terms", "normalize_bool", "terms.normalize", False),
    ("terms", "subst", "terms.subst", False),
    ("interp", "run_lts", "interp.run", False),
    ("terms", "holds", "terms.holds", False),
)

# per-layer metric -> (unit, the wrapped function it is read from); the order
# is the order of the report
METRICS = {
    "parser.parse_s": ("s", "parser.parse"),
    "lts.lower_s": ("s", "lts.lower"),
    "lts.transitions": ("count", "lts.lower"),
    "mutation.generate_s": ("s", "mutation.generate"),
    "mutation.tce_s": ("s", "mutation.tce"),
    "mutation.meta_s": ("s", "mutation.meta"),
    "mutation.mutants": ("count", "mutation.generate"),
    "mutation.kept": ("count", "mutation.tce"),
    "mutation.meta_transitions": ("count", "mutation.meta"),
    "symex.explore_s": ("s", "symex.explore"),
    "symex.self_s": ("s", "symex.explore"),
    "symex.states": ("count", "symex.explore"),
    "symex.pruned_infeasible": ("count", "symex.explore"),
    "symex.pruned_noninfected": ("count", "symex.explore"),
    "symex.pruned_pp": ("count", "symex.explore"),
    "symex.tests": ("count", "symex.explore"),
    "symex.killing_tests_ratio": ("ratio", "interp.matrix"),
    "solver.queries": ("count", "solver.query"),
    "solver.s": ("s", "solver.query"),
    "solver.self_s": ("s", "solver.query"),
    "solver.points": ("count", "terms.holds"),
    "solver.points_per_query": ("points/query", "terms.holds"),
    "solver.sat": ("count", "solver.query"),
    "solver.unsat": ("count", "solver.query"),
    "solver.unknown": ("count", "solver.query"),
    "terms.normalize_s": ("s", "terms.normalize"),
    "terms.normalize_calls": ("count", "terms.normalize"),
    "terms.normalize_hit_ratio": ("ratio", "terms.normalize"),
    "terms.subst_s": ("s", "terms.subst"),
    "interp.matrix_s": ("s", "interp.matrix"),
    "interp.runs": ("count", "interp.run"),
    "interp.steps": ("count", "interp.run"),
    "interp.timeouts": ("count", "interp.run"),
    "interp.steps_per_s": ("steps/s", "interp.run"),
    "interp.minimize_s": ("s", "interp.minimize"),
    "cli.total_s": ("s", "cli.total"),
    "cli.other_s": ("s", "cli.total"),
}


class Tracer:
    """Inclusive and self time per wrapped function, call counts, result
    counters and spans, all kept in memory until the run ends."""

    def __init__(self) -> None:
        self.incl: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.absent: set = set()
        self.spans: List[dict] = []
        self.trace_id = ""
        self._stack: List[list] = []  # [key, start, child time, span id]
        self.active: Counter = Counter()
        self.last: Dict[str, object] = {}
        self.wall_clock_max = 0.0

    def wrap(self, module, name: str, key: str, span: bool,
             on_result: Optional[Callable[[object], None]] = None) -> None:
        fn = getattr(module, name, None)
        if fn is None:
            self.absent.add(f"{module.__name__}.{name}")
            return
        clock = time.perf_counter
        stack, active, calls = self._stack, self.active, self.calls

        def wrapper(*args, **kwargs):
            calls[key] += 1
            if active[key]:  # re-entrant call: timed by the outer frame
                return fn(*args, **kwargs)
            active[key] += 1
            frame = [key, clock(), 0.0, len(self.spans) if span else None]
            if span:
                parent = next((f[3] for f in reversed(stack) if f[3] is not None), None)
                self.spans.append({"id": frame[3], "trace": self.trace_id,
                                   "name": key, "parent": parent})
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                active[key] -= 1
                dur = end - frame[1]
                self.incl[key] += dur
                self.self_time[key] += dur - frame[2]
                if stack:
                    stack[-1][2] += dur
                if span:
                    self.spans[frame[3]].update(start=frame[1], end=end)
            if on_result is not None:
                try:
                    on_result(result)
                except AttributeError as e:
                    self.absent.add(f"{key} result: {e}")
            return result

        wrapper.__wrapped__ = fn
        setattr(module, name, wrapper)


def install(tracer: Tracer, modules: dict) -> None:
    c = tracer.counts

    def on_lower(lts):
        c["lts.transitions"] += len(lts.transitions)

    def on_generate(mutants):
        c["mutation.mutants"] += len(mutants)

    def on_tce(report):
        c["mutation.kept"] += len(report.kept())

    def on_meta(meta):
        c["mutation.meta_transitions"] += len(meta.lts.transitions)

    def on_explore(result):
        tests, stats = result
        tracer.last["tests"] = tests
        c["symex.tests"] += len(tests)
        c["symex.states"] += stats.states_created
        c["symex.pruned_infeasible"] += stats.pruned_infeasible
        c["symex.pruned_noninfected"] += stats.pruned_noninfected
        c["symex.pruned_pp"] += stats.pruned_pp
        tracer.wall_clock_max = max(tracer.wall_clock_max, stats.wall_clock)

    def on_matrix(km):
        tracer.last["matrix"] = km

    def on_query(res):
        c[f"solver.{res.status}"] += 1

    def on_run(trace):
        c["interp.steps"] += trace.steps
        c["interp.timeouts"] += trace.status == "timeout"

    hooks = {"lts.lower": on_lower, "mutation.generate": on_generate,
             "mutation.tce": on_tce, "mutation.meta": on_meta,
             "symex.explore": on_explore, "interp.matrix": on_matrix,
             "solver.query": on_query, "interp.run": on_run}
    for mod, name, key, span in WRAPPED:
        if key == "terms.holds":
            continue
        tracer.wrap(modules[mod], name, key, span, hooks.get(key))

    # solver.points: term evaluations made while a solver query is active
    terms = modules["terms"]
    holds = getattr(terms, "holds", None)
    if holds is None:
        tracer.absent.add(f"{terms.__name__}.holds")
        return
    active = tracer.active

    def counting_holds(t, env):
        if active["solver.query"]:
            c["solver.points"] += 1
        return holds(t, env)

    terms.holds = counting_holds


def _lru(fn):
    """The lru_cache object behind a (possibly wrapped) function, or None."""
    while fn is not None and not hasattr(fn, "cache_info"):
        fn = getattr(fn, "__wrapped__", None)
    return fn


def _cache_stats(terms) -> Optional[tuple]:
    cached = _lru(getattr(terms, "normalize_bool", None))
    if cached is None:
        return None
    info = cached.cache_info()
    return info.hits, info.misses


def _clear_caches(modules: dict) -> None:
    """Each CLI process starts with empty lru_caches; do the same per program."""
    for mod in modules.values():
        for value in list(vars(mod).values()):
            if callable(value):
                cached = _lru(value)
                if cached is not None:
                    cached.cache_clear()


def _killing_ratio(tracer: Tracer, n_seeds: int) -> None:
    tests, km = tracer.last.get("tests"), tracer.last.get("matrix")
    if tests is None or km is None:
        return
    try:
        for i, t in enumerate(tests):
            if t.mutant_id in km.mutant_ids and km.killed(n_seeds + i, t.mutant_id):
                tracer.counts["symex.killing_tests"] += 1
    except AttributeError as e:
        tracer.absent.add(f"symex.killing_tests_ratio: {e}")


# metrics read straight from the result counters
COUNTED = ("lts.transitions", "mutation.mutants", "mutation.kept",
           "mutation.meta_transitions", "symex.states", "symex.pruned_infeasible",
           "symex.pruned_noninfected", "symex.pruned_pp", "symex.tests",
           "solver.points", "solver.sat", "solver.unsat", "solver.unknown",
           "interp.steps", "interp.timeouts")


def metrics(tracer: Tracer, hits_misses: Optional[tuple], timed: set) -> Dict[str, dict]:
    c, incl, own, calls = tracer.counts, tracer.incl, tracer.self_time, tracer.calls

    def ratio(a, b):
        return a / b if b else 0.0

    values = {name: c.get(name, 0) for name in COUNTED}
    values.update({
        "parser.parse_s": incl["parser.parse"],
        "lts.lower_s": incl["lts.lower"],
        "mutation.generate_s": incl["mutation.generate"],
        "mutation.tce_s": incl["mutation.tce"],
        "mutation.meta_s": incl["mutation.meta"],
        "symex.explore_s": incl["symex.explore"],
        "symex.self_s": own["symex.explore"],
        "symex.killing_tests_ratio": ratio(c["symex.killing_tests"], c["symex.tests"]),
        "solver.queries": calls["solver.query"],
        "solver.s": incl["solver.query"],
        "solver.self_s": own["solver.query"],
        "solver.points_per_query": ratio(c["solver.points"], calls["solver.query"]),
        "terms.normalize_s": incl["terms.normalize"],
        "terms.normalize_calls": calls["terms.normalize"],
        "terms.normalize_hit_ratio":
            ratio(hits_misses[0], sum(hits_misses)) if hits_misses else None,
        "terms.subst_s": incl["terms.subst"],
        "interp.matrix_s": incl["interp.matrix"],
        "interp.runs": calls["interp.run"],
        "interp.steps_per_s": ratio(c["interp.steps"], incl["interp.matrix"]),
        "interp.minimize_s": incl["interp.minimize"],
        "cli.total_s": incl["cli.total"],
        "cli.other_s": own["cli.total"],
    })
    out = {}
    for name, (unit, source) in METRICS.items():
        value = values.get(name)
        if value is None or source not in timed:
            out[name] = {"value": None, "unit": unit, "absent": True}
        else:
            out[name] = {"value": value, "unit": unit}
    return out


def main(argv: List[str]) -> int:
    with open(argv[0], encoding="utf-8") as f:
        job = json.load(f)
    traced = "--trace" in argv[1:]
    sys.path.insert(0, job["src"])
    from mutkill import cli, interp, lts, mutation, parser, solver, symex, terms
    modules = {"cli": cli, "interp": interp, "lts": lts, "mutation": mutation,
               "parser": parser, "solver": solver, "symex": symex, "terms": terms}
    tracer = Tracer()
    if traced:
        install(tracer, modules)
    timed = {key for mod, name, key, _ in WRAPPED
             if f"{modules[mod].__name__}.{name}" not in tracer.absent}
    with open(job["config"], encoding="utf-8") as f:
        cfg_text = f.read()
    hits = misses = 0
    have_cache = True
    total = 0.0
    for prog in job["programs"]:
        _clear_caches(modules)
        tracer.trace_id = prog["name"]
        tracer.last.clear()
        manifest = cli.parse_config(cfg_text, program=prog["path"], out_dir=prog["out"],
                                    seeds=prog["seeds"])
        start = time.perf_counter()
        cli.run_pipeline(manifest)
        total += time.perf_counter() - start
        if traced:
            _killing_ratio(tracer, prog["n_seeds"])
            hm = _cache_stats(terms)
            if hm is None:
                have_cache = False
            else:
                hits, misses = hits + hm[0], misses + hm[1]
    result = {"total_s": total}
    if traced:
        result["metrics"] = metrics(tracer, (hits, misses) if have_cache else None, timed)
        result["wall_clock_max"] = tracer.wall_clock_max
        result["absent"] = sorted(tracer.absent)
        result["spans"] = len(tracer.spans)
        with open(job["spans"], "w", encoding="utf-8") as f:
            json.dump(tracer.spans, f)
    with open(job["result"], "w", encoding="utf-8") as f:
        json.dump(result, f, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
