"""Batch pipeline driver: parse -> mutate -> TCE -> symbolic generation ->
kill matrix -> minimization -> report.

One binary with a subcommand per stage (`mutate`, `tce`, `gen`, `matrix`,
`minimize`, `report`) plus `all`, an alias of `report`.  Each subcommand runs
the one stage chain through its stage and writes the files of every stage it
ran; `matrix` and `minimize` replay the seeds plus a test file instead of
generating tests.  Configuration is a key=value file; unknown keys are
rejected.  Identical manifests (including the RNG seed) produce
byte-identical output files.

Command line: `mutkill STAGE --flag value ...`.  The stage comes first;
flag names are spelled in full (no abbreviations); `--flag=value` is
accepted; `-h`/`--help` anywhere prints the help.  Exit codes: 0 done,
1 a stage or configuration error, 2 a usage error.
"""

from __future__ import annotations

import os
import sys
from typing import Any, Dict, List, Optional, Sequence, Tuple

from . import interp, lts as L, mutation, parser as P, symex
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
    __slots__ = ("program", "out_dir", "seeds", "config", "operators", "step_budget")
    _defaults = {"seeds": None, "config": symex.Config(), "operators": DEFAULT_OPERATORS,
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
    if run.get("step_budget", 1) < 1:  # no replay could take a step
        raise ConfigError(f"STEP_BUDGET must be >= 1: {run['step_budget']}")
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


def _write(out_dir: str, name: str, content: str) -> None:
    """Write `content` to `out_dir/name`.  A file that is already there is
    overwritten in place and then cut to the new length: truncating it to
    zero first costs several times more on ext4."""
    os.makedirs(out_dir, exist_ok=True)
    data = memoryview(content.encode("utf-8"))
    fd = os.open(os.path.join(out_dir, name), os.O_WRONLY | os.O_CREAT, 0o666)
    try:
        written = 0
        while written < len(data):
            written += os.write(fd, data[written:])
        os.ftruncate(fd, len(data))
    finally:
        os.close(fd)


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
        tests, stats = _stage("gen", symex.explore, meta, set(kept), seeds, manifest.config)
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


# flag -> (value type, or the tuple of accepted values; default; help)
_FLAGS = {
    "--program": (str, None, "MiniImp source file (.mimp); required"),
    "--seeds": (str, None, "seed file, one name=value list per line"),
    "--mode": (("semu", "infection-only", "vanilla"), None, "exploration mode"),
    "--config": (str, None, "key=value configuration file"),
    "--out": (str, "out", "output directory (default: out)"),
    "--budget-seconds": (float, None, "wall-clock budget of gen"),
    "--rng-seed": (int, None, "seed of the random choices"),
    "--operators": (str, None, "comma-separated operator subset"),
    "--tests": (str, None, "test file replayed by matrix and minimize"),
}
_COMMANDS = STAGES + ("all",)
_USAGE = "usage: mutkill {" + ",".join(_COMMANDS) + "} --program PROGRAM [--flag value ...]"


class UsageError(Exception):
    """A malformed command line; `main` prints the usage and returns 2."""


def _key(flag: str) -> str:
    return flag[2:].replace("-", "_")


def _help() -> str:
    lines = [_USAGE, "", "mutation-based test generation over MiniImp programs", "",
             "flags, spelled in full (--flag=value also works):"]
    for flag, (kind, _, text) in _FLAGS.items():
        value = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else _key(flag).upper()
        lines.append(f"  {flag} {value}\n      {text}")
    lines.append("  -h, --help\n      show this help and exit")
    return "\n".join(lines) + "\n"


def parse_args(argv: Sequence[str]) -> Tuple[str, Dict[str, Any]]:
    """Parse `STAGE --flag value ...` into the stage and every flag's value,
    keyed by the flag name without `--` and with `_` for `-`; unset flags
    take their defaults.  Raises UsageError for an unknown stage or flag, a
    missing or bad value, or no --program."""
    if not argv or argv[0] not in _COMMANDS:
        got = f"invalid stage {argv[0]!r}" if argv else "missing stage"
        raise UsageError(f"{got} (choose from {', '.join(_COMMANDS)})")
    args = {_key(flag): default for flag, (_, default, _) in _FLAGS.items()}
    rest = iter(argv[1:])
    for arg in rest:
        flag, eq, value = arg.partition("=")
        if flag not in _FLAGS:
            raise UsageError(f"unrecognized argument {arg!r}")
        if not eq:
            value = next(rest, None)
            if value is None or value.startswith("--"):
                raise UsageError(f"argument {flag}: expected one value")
        kind = _FLAGS[flag][0]
        if isinstance(kind, tuple):
            if value not in kind:
                raise UsageError(f"argument {flag}: invalid choice {value!r} "
                                 f"(choose from {', '.join(kind)})")
        else:
            try:
                value = kind(value)
            except ValueError:
                raise UsageError(f"argument {flag}: invalid {kind.__name__} value "
                                 f"{value!r}") from None
        args[_key(flag)] = value
    if args["program"] is None:
        raise UsageError("the following argument is required: --program")
    return argv[0], args


def _manifest_from_args(args: Dict[str, Any]) -> RunManifest:
    text = ""
    if args["config"]:
        with open(args["config"], encoding="utf-8") as f:
            text = f.read()
    manifest = parse_config(text, program=args["program"], out_dir=args["out"],
                            seeds=args["seeds"])
    overrides = {k: args[k] for k in ("mode", "budget_seconds", "rng_seed")
                 if args[k] is not None}
    try:
        cfg = manifest.config.replace(**overrides)
    except ValueError as e:
        raise ConfigError(str(e)) from None
    operators = (manifest.operators if args["operators"] is None
                 else _parse_operators(args["operators"]))
    return manifest.replace(config=cfg, operators=operators)


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Run one command line; return its exit code: 0 done, 1 a stage or
    configuration error, 2 a usage error."""
    argv = sys.argv[1:] if argv is None else argv
    if "-h" in argv or "--help" in argv:
        print(_help(), end="")
        return 0
    try:
        command, args = parse_args(argv)
    except UsageError as e:
        print(f"{_USAGE}\nmutkill: error: {e}", file=sys.stderr)
        return 2
    stop = "report" if command == "all" else command
    try:
        print(run_pipeline(_manifest_from_args(args), stop, args["tests"]), end="")
    except (StageError, ConfigError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


def entry() -> None:
    """Process entry of `python -m mutkill.cli` and the `mutkill` script.
    Runs `main` on sys.argv, flushes the standard streams and ends the
    process with `os._exit`: interpreter finalization, which frees the
    intern table, the memos and every module one by one, would take longer
    than most stages.  Every output file is closed by then.  An exception
    still propagates and exits normally with its traceback."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
