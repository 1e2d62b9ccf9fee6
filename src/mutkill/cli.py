"""Batch pipeline driver: parse -> mutate -> TCE -> symbolic generation ->
kill matrix -> minimization -> report.

One binary with a subcommand per stage (`mutate`, `tce`, `gen`, `matrix`,
`minimize`, `report`) plus `all`, an alias of `report`.  Each subcommand runs
the one stage chain through its stage and writes the files of every stage it
ran; `matrix` and `minimize` replay the seeds plus a test file instead of
generating tests.  Configuration is a key=value file; unknown keys are
rejected.  Identical manifests (including the RNG seed) produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import os
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from . import interp, lts as L, mutation, parser as P, solver as S, symex
from .record import Record

DEFAULT_OPERATORS = mutation.SUPPORTED_OPERATORS


class ConfigError(Exception):
    pass


class StageError(Exception):
    def __init__(self, stage: str, cause: Exception):
        super().__init__(f"[{stage}] {cause}")
        self.stage = stage
        self.cause = cause


class RunManifest(Record):
    __slots__ = ("program", "out_dir", "seeds", "config", "operators", "solver",
                 "external_solver_cmd", "step_budget")
    _defaults = {"seeds": None, "config": symex.Config(), "operators": DEFAULT_OPERATORS,
                 "solver": "bounded", "external_solver_cmd": None,
                 "step_budget": interp.DEFAULT_STEP_BUDGET}


# ---------------------------------------------------------------------------
# Config file
# ---------------------------------------------------------------------------

_BOOLS = {"true": True, "false": False, "1": True, "0": False}


def _parse_bool(value: str) -> bool:
    v = value.strip().lower()
    if v not in _BOOLS:
        raise ConfigError(f"expected boolean, got {value!r}")
    return _BOOLS[v]


def _parse_operators(value: str) -> Tuple[str, ...]:
    return tuple(op.strip() for op in value.split(",") if op.strip())


# key -> (field, value parser): a `symex.Config` field, or a `RunManifest`
# field for the keys in _MANIFEST_FIELDS
_CONFIG_KEYS = {
    "PL": ("pl", str),
    "CW": ("cw", int),
    "PP": ("pp", float),
    "PSS": ("pss", str),
    "MPD": ("mpd", int),
    "NSD": ("nsd", _parse_bool),
    "NTPM": ("ntpm", int),
    "MODE": ("mode", str),
    "BUDGET_SECONDS": ("budget_seconds", float),
    "MAX_STATES": ("max_states", int),
    "MAX_DEPTH": ("max_depth", int),
    "RNG_SEED": ("rng_seed", int),
    "USE_PRECONDITION": ("use_precondition", _parse_bool),
    "OPERATORS": ("operators", _parse_operators),
    "STEP_BUDGET": ("step_budget", int),
}
_MANIFEST_FIELDS = ("operators", "step_budget")


def parse_config(text: str, program: str = "", out_dir: str = "",
                 seeds: Optional[str] = None) -> RunManifest:
    """key=value lines, '#' comments; unknown keys rejected.  Unset keys take
    the selected defaults (PL=GMD2MS, CW=0, PP=0.25, PSS=RND, MPD=2,
    NSD=False, NTPM=5)."""
    cfg = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        name, parse = _CONFIG_KEYS[key]
        try:
            cfg[name] = parse(value)
        except (ValueError, ConfigError) as e:
            raise ConfigError(f"line {lineno}: {e}") from None
    run = {name: cfg.pop(name) for name in _MANIFEST_FIELDS if name in cfg}
    try:
        config = symex.Config(**cfg)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    return RunManifest(program=program, out_dir=out_dir, seeds=seeds,
                       config=config, **run)


# ---------------------------------------------------------------------------
# Seed and test files
# ---------------------------------------------------------------------------


def parse_valuation(line: str) -> Dict[str, int]:
    out: Dict[str, int] = {}
    for pair in line.split(","):
        pair = pair.strip()
        if not pair:
            continue
        name, eq, value = (p.strip() for p in pair.partition("="))
        if not (name and eq):
            raise ConfigError(f"expected name=value, got {pair!r}")
        if name in out:
            raise ConfigError(f"{name!r} given twice, got {pair!r}")
        try:
            out[name] = int(value)
        except ValueError:
            raise ConfigError(f"expected an integer value, got {pair!r}") from None
    return out


def read_seeds(text: str) -> List[Dict[str, int]]:
    seeds = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if line:
            try:
                seeds.append(parse_valuation(line))
            except ConfigError as e:
                raise ConfigError(f"line {lineno}: {e}") from None
    return seeds


def format_tests(tests: Sequence[symex.GeneratedTest]) -> str:
    lines = []
    for t in tests:
        lines.append(f"# mutant={t.mutant_id} site={t.site} k={t.k}")
        lines.append(interp.format_valuation(t.valuation()))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------------
# Pipeline
# ---------------------------------------------------------------------------


STAGES = ("mutate", "tce", "gen", "matrix", "minimize", "report")


def _stage(name: str, fn, *args):
    try:
        return fn(*args)
    except Exception as e:  # tag the failing stage for the caller
        raise StageError(name, e) from e


def _load_program(path: str) -> L.Lts:
    with open(path, encoding="utf-8") as f:
        text = f.read()
    return L.lower_to_lts(P.parse_program(P.SourceProgram(text, path)))


def _read_valuations(path: Optional[str]) -> List[Dict[str, int]]:
    if not path:
        return []
    with open(path, encoding="utf-8") as f:
        text = f.read()
    try:
        return read_seeds(text)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from None


def _make_handle(manifest: RunManifest, lts: L.Lts) -> S.SolverHandle:
    domains = lts.input_domains
    if manifest.solver == "external":
        if not manifest.external_solver_cmd:
            raise ConfigError("--external-solver-cmd required with --solver external")
        return S.SolverHandle.external(domains, manifest.external_solver_cmd)
    return S.SolverHandle.bounded(domains)


def _write(out_dir: str, name: str, content: str) -> None:
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, name), "w", encoding="utf-8") as f:
        f.write(content)


def run_pipeline(manifest: RunManifest, stop: str = "report",
                 tests_file: Optional[str] = None) -> str:
    """Run the stage chain through `stop` (one of STAGES), write the files
    of every stage it runs, and return the summary of the last one; for
    `report` that is the text of report.txt.

    `matrix` and `minimize` do not run `gen`: they replay the seeds plus the
    tests in `tests_file`.  The full chain replays the seeds plus the
    generated tests."""
    out = manifest.out_dir
    lts = _stage("parse", _load_program, manifest.program)
    mutants = _stage("mutate", mutation.generate_mutants, lts, manifest.operators)
    _write(out, "mutants.tsv", mutation.mutants_tsv(mutants))
    if stop == "mutate":
        return f"generated {len(mutants)} mutants -> {out}/mutants.tsv\n"

    tce = _stage("tce", mutation.tce_filter, lts, mutants)
    _write(out, "tce.tsv", mutation.tce_tsv(tce, mutants))
    duplicates = sum(len(g) for g in tce.duplicate_groups)
    if stop == "tce":
        return (f"equivalent={len(tce.equivalent)} duplicates={duplicates} "
                f"surviving={len(tce.surviving)} -> {out}/tce.tsv\n")
    kept = tce.kept()

    meta = _stage("meta", mutation.build_meta_mutant, lts, mutants)
    seeds = _read_valuations(manifest.seeds)
    if stop in ("matrix", "minimize"):
        suite = seeds + _read_valuations(tests_file)
    else:
        handle = _make_handle(manifest, lts)
        tests, stats = _stage("gen", symex.explore, meta, set(kept), seeds,
                              manifest.config, handle)
        _write(out, "tests.txt", format_tests(tests))
        _write(out, "stats.txt", stats.as_text())
        if stop == "gen":
            return f"generated {len(tests)} tests -> {out}/tests.txt\n"
        suite = seeds + [t.valuation() for t in tests]

    km = _stage("matrix", interp.compute_kill_matrix, meta, kept, suite,
                manifest.step_budget)
    _write(out, "matrix.csv", interp.matrix_csv(km))
    if stop == "matrix":
        return (f"{len(km.tests)} tests x {len(km.mutant_ids)} mutants -> "
                f"{out}/matrix.csv\n")

    chosen = _stage("minimize", interp.greedy_minimize, km)
    minimized = "".join(interp.format_valuation(dict(km.tests[i])) + "\n" for i in chosen)
    _write(out, "minimized.txt", minimized)
    if stop == "minimize":
        return f"minimized suite: {len(chosen)} tests -> {out}/minimized.txt\n"

    surviving = interp.surviving_mutants(km)
    lines = [
        f"mutants_generated={len(mutants)}",
        f"tce_equivalent={len(tce.equivalent)}",
        f"tce_duplicate={duplicates}",
        f"mutants_explored={len(kept)}",
        f"mutants_surviving={len(surviving)}",
        f"mutants_killed={len(kept) - len(surviving)}",
        f"minimized_suite_size={len(chosen)}",
    ]
    lines += [f"mutant_{m}={'survived' if m in surviving else 'killed'}" for m in kept]
    report = "\n".join(lines) + "\n\n" + stats.as_text()
    _write(out, "report.txt", report)
    return report


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--program", required=True, help="MiniImp source file (.mimp)")
    p.add_argument("--seeds", help="seed file, one name=value list per line")
    p.add_argument("--mode", choices=["semu", "infection-only", "vanilla"],
                   default=None)
    p.add_argument("--config", help="key=value configuration file")
    p.add_argument("--out", default="out", help="output directory")
    p.add_argument("--budget-seconds", type=float, default=None)
    p.add_argument("--rng-seed", type=int, default=None)
    p.add_argument("--solver", choices=["bounded", "external"], default="bounded")
    p.add_argument("--external-solver-cmd", default=None)
    p.add_argument("--operators", default=None,
                   help="comma-separated operator subset")
    p.add_argument("--tests", help="test file replayed by matrix and minimize")


def _manifest_from_args(args: argparse.Namespace) -> RunManifest:
    text = ""
    if args.config:
        with open(args.config, encoding="utf-8") as f:
            text = f.read()
    manifest = parse_config(text, program=args.program, out_dir=args.out,
                            seeds=args.seeds)
    overrides = {"mode": args.mode, "budget_seconds": args.budget_seconds,
                 "rng_seed": args.rng_seed}
    cfg = manifest.config.replace(**{k: v for k, v in overrides.items() if v is not None})
    operators = _parse_operators(args.operators) if args.operators else manifest.operators
    return manifest.replace(config=cfg, operators=operators, solver=args.solver,
                            external_solver_cmd=args.external_solver_cmd)


def build_arg_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="mutkill",
        description="mutation-based test generation over MiniImp programs")
    sub = ap.add_subparsers(dest="command", required=True)
    for name in STAGES + ("all",):
        _add_common(sub.add_parser(name))
    return ap


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_arg_parser().parse_args(argv)
    stop = "report" if args.command == "all" else args.command
    try:
        print(run_pipeline(_manifest_from_args(args), stop, args.tests), end="")
    except (StageError, ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
