import os
import subprocess
import sys

import pytest

from mutkill import cli
from mutkill import interp as I
from mutkill import symex as X

import conftest as C

FAST_CFG = "STEP_BUDGET = 2000\nBUDGET_SECONDS = 10\n"


class TestParseConfig:
    def test_empty_text_gives_defaults(self):
        m = cli.parse_config("")
        assert m.config == X.Config()
        assert m.operators == cli.DEFAULT_OPERATORS
        assert m.step_budget == I.DEFAULT_STEP_BUDGET

    def test_full_file(self):
        text = """
        # tuning
        PL = SMD2MS
        CW = 2
        PP = 0.5      # keep half
        PSS = MDO
        MPD = 1
        NSD = true
        NTPM = 3
        MODE = vanilla
        BUDGET_SECONDS = 2.5
        MAX_STATES = 100
        MAX_DEPTH = 50
        RNG_SEED = 9
        USE_PRECONDITION = false
        OPERATORS = SDL, ROR
        STEP_BUDGET = 1234
        """
        m = cli.parse_config(text)
        cfg = m.config
        assert (cfg.pl, cfg.cw, cfg.pp, cfg.pss, cfg.mpd, cfg.nsd, cfg.ntpm) \
            == ("SMD2MS", 2, 0.5, "MDO", 1, True, 3)
        assert cfg.mode == "vanilla"
        assert (cfg.budget_seconds, cfg.max_states, cfg.max_depth,
                cfg.rng_seed, cfg.use_precondition) == (2.5, 100, 50, 9, False)
        assert m.operators == ("SDL", "ROR")
        assert m.step_budget == 1234

    def test_unknown_key_reports_line(self):
        with pytest.raises(cli.ConfigError, match="line 2"):
            cli.parse_config("PP = 0.5\nWAT = 1\n")

    def test_out_of_range_pp(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_config("PP = 1.5\n")

    def test_bad_boolean(self):
        with pytest.raises(cli.ConfigError, match="line 1"):
            cli.parse_config("NSD = maybe\n")

    def test_missing_equals(self):
        with pytest.raises(cli.ConfigError, match="line 1"):
            cli.parse_config("just words\n")


class TestValuations:
    def test_parse_valuation(self):
        assert cli.parse_valuation("x=-3, y=4") == {"x": -3, "y": 4}

    def test_bad_pair(self):
        with pytest.raises(cli.ConfigError):
            cli.parse_valuation("x3")

    def test_read_seeds_skips_comments(self):
        text = "# suite\nx=1\n\nx=2 # boundary\n"
        assert cli.read_seeds(text) == [{"x": 1}, {"x": 2}]

    def test_format_and_read_tests_roundtrip(self):
        tests = [X.GeneratedTest(inputs=(("x", -3),), mutant_id=7,
                                 site="terminal", k=4)]
        text = cli.format_tests(tests)
        assert text.splitlines()[0] == "# mutant=7 site=terminal k=4"
        assert cli.read_seeds(text) == [{"x": -3}]


@pytest.fixture
def workdir(tmp_path):
    cfg = tmp_path / "cfg.txt"
    cfg.write_text(FAST_CFG)
    return tmp_path, str(cfg)


def run_main(args):
    return cli.main(args)


class TestPipeline:
    def test_all_on_golden_program(self, workdir, capsys):
        tmp, cfg = workdir
        out = tmp / "out"
        rc = run_main(["all", "--program", C.corpus_path("fig1"),
                       "--config", cfg, "--out", str(out)])
        assert rc == 0
        for name in ("mutants.tsv", "tce.tsv", "tests.txt", "stats.txt",
                     "matrix.csv", "minimized.txt", "report.txt"):
            assert (out / name).exists(), name
        report = (out / "report.txt").read_text()
        assert "mutants_generated=76" in report
        assert "mutants_killed=" in report
        printed = capsys.readouterr().out
        assert "mutants_generated=76" in printed

    def test_report_consistent_with_matrix(self, workdir):
        tmp, cfg = workdir
        out = tmp / "out"
        run_main(["all", "--program", C.corpus_path("abs"),
                  "--config", cfg, "--out", str(out)])
        report = dict(
            line.split("=", 1) for line in
            (out / "report.txt").read_text().splitlines()
            if "=" in line and not line.startswith("tests_per_mutant"))
        killed = sum(1 for k, v in report.items()
                     if k.startswith("mutant_") and v == "killed")
        survived = sum(1 for k, v in report.items()
                       if k.startswith("mutant_") and v == "survived")
        assert killed == int(report["mutants_killed"])
        assert survived == int(report["mutants_surviving"])
        assert killed + survived == int(report["mutants_explored"])

    def test_reproducible_outputs(self, workdir):
        tmp, cfg = workdir
        names = ("mutants.tsv", "tce.tsv", "tests.txt", "matrix.csv",
                 "minimized.txt")
        outs = []
        for d in ("a", "b"):
            out = tmp / d
            rc = run_main(["all", "--program", C.corpus_path("fig1"),
                           "--config", cfg, "--out", str(out),
                           "--rng-seed", "5"])
            assert rc == 0
            outs.append({n: (out / n).read_bytes() for n in names})
        assert outs[0] == outs[1]

    def test_vanilla_mode_single_path(self, workdir):
        tmp, cfg = workdir
        out = tmp / "out"
        prog = tmp / "straight.mimp"
        prog.write_text("input x: int in [-8,7];\n"
                        "fn main() { output x + 1; }\n")
        rc = run_main(["gen", "--program", str(prog), "--config", cfg,
                       "--out", str(out), "--mode", "vanilla"])
        assert rc == 0
        tests = cli.read_seeds((out / "tests.txt").read_text())
        assert tests == [{"x": -8}]
        header = (out / "tests.txt").read_text().splitlines()[0]
        assert header.startswith("# mutant=0 site=terminal")

    def test_config_mode_is_the_mode_that_runs(self, tmp_path):
        manifest = cli.RunManifest(
            program=C.corpus_path("abs"), out_dir=str(tmp_path),
            config=X.Config(mode="vanilla", max_states=300, budget_seconds=10))
        cli.run_pipeline(manifest)
        headers = [line for line in (tmp_path / "tests.txt").read_text().splitlines()
                   if line.startswith("#")]
        assert headers and all("mutant=0 " in h for h in headers)

    def test_stage_subcommands_chain(self, workdir):
        tmp, cfg = workdir
        out = tmp / "out"
        prog = C.corpus_path("abs")
        assert run_main(["mutate", "--program", prog, "--out", str(out),
                         "--config", cfg]) == 0
        assert run_main(["tce", "--program", prog, "--out", str(out),
                         "--config", cfg]) == 0
        assert run_main(["gen", "--program", prog, "--out", str(out),
                         "--config", cfg]) == 0
        assert run_main(["matrix", "--program", prog, "--out", str(out),
                         "--config", cfg,
                         "--tests", str(out / "tests.txt")]) == 0
        assert run_main(["minimize", "--program", prog, "--out", str(out),
                         "--config", cfg,
                         "--tests", str(out / "tests.txt")]) == 0
        matrix = (out / "matrix.csv").read_text().splitlines()
        assert matrix[0].startswith("test,")
        assert len(matrix) == 1 + len(cli.read_seeds(
            (out / "tests.txt").read_text()))

    def test_operator_subset_flag(self, workdir):
        tmp, cfg = workdir
        out = tmp / "out"
        rc = run_main(["mutate", "--program", C.corpus_path("abs"),
                       "--out", str(out), "--operators", "SDL"])
        assert rc == 0
        rows = (out / "mutants.tsv").read_text().strip().splitlines()[1:]
        assert rows
        assert all(row.split("\t")[1].startswith("SDL") for row in rows)


SRC = os.path.join(os.path.dirname(__file__), os.pardir, "src")


class TestWrite:
    """An output file that is already there is overwritten in place and
    then cut to the new length."""

    def test_a_shorter_rewrite_leaves_exactly_the_new_bytes(self, tmp_path):
        cli._write(str(tmp_path), "out.txt", "x=1\nlonger first text \u00e9\n")
        cli._write(str(tmp_path), "out.txt", "y=\u00e9\n")
        assert (tmp_path / "out.txt").read_bytes() == "y=\u00e9\n".encode("utf-8")

    def test_a_longer_rewrite_and_an_empty_one(self, tmp_path):
        cli._write(str(tmp_path / "new"), "out.txt", "ab\n")
        cli._write(str(tmp_path / "new"), "out.txt", "abcdef\n" * 1000)
        assert (tmp_path / "new" / "out.txt").read_text() == "abcdef\n" * 1000
        cli._write(str(tmp_path / "new"), "out.txt", "")
        assert (tmp_path / "new" / "out.txt").read_bytes() == b""


class TestStartup:
    def test_bounded_path_imports_no_dataclasses_or_subprocess(self, tmp_path):
        # a fresh interpreter without `site`, so that only mutkill imports;
        # it prints what `tce`, then `gen`, then `matrix` has imported
        common = ["--program", C.corpus_path("abs"), "--out", str(tmp_path)]
        runs = [["tce"] + common, ["gen"] + common,
                ["matrix"] + common + ["--tests", str(tmp_path / "tests.txt")]]
        code = ("import sys\n"
                "from mutkill import cli\n"
                f"for argv in {runs!r}:\n"
                "    assert cli.main(argv) == 0\n"
                "    print(sorted({'argparse', 'gettext', 'locale', 'dataclasses',"
                " 'inspect', 'subprocess', 'shlex'} & set(sys.modules)))\n")
        proc = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=SRC))
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.splitlines()[1::2] == ["[]"] * 3
        assert (tmp_path / "matrix.csv").exists()


def spawn(args):
    """`python -m mutkill.cli ARGS` with its standard streams as pipes, which
    Python buffers unless PYTHONUNBUFFERED is set."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = SRC
    return subprocess.run([sys.executable, "-m", "mutkill.cli", *args],
                          capture_output=True, text=True, env=env)


class TestProcess:
    def test_summary_reaches_a_pipe(self, tmp_path):
        proc = spawn(["tce", "--program", C.corpus_path("abs"), "--out", str(tmp_path)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"equivalent=0 duplicates=2 surviving=7 -> {tmp_path}/tce.tsv\n"
        assert proc.stderr == ""

    def test_missing_program_file(self, tmp_path):
        proc = spawn(["tce", "--program", str(tmp_path / "nope.mimp"),
                      "--out", str(tmp_path)])
        assert proc.returncode == 1
        assert proc.stderr.startswith("error: [parse] ")
        assert proc.stdout == ""

    @pytest.mark.parametrize("args", [
        ["tce", "--program", "p.mimp", "--bogus", "1"],
        ["tce", "--program", "p.mimp", "--mode", "bogus"],
        ["tce", "--out", "out"],
        ["tce", "--program", "p.mimp", "--rng-seed", "x"],
    ])
    def test_usage_error(self, args):
        proc = spawn(args)
        assert proc.returncode == 2
        usage, error = proc.stderr.splitlines()
        assert usage.startswith("usage: mutkill ")
        assert error.startswith("mutkill: error: ")

    def test_help(self):
        proc = spawn(["--help"])
        assert proc.returncode == 0
        assert proc.stdout.startswith("usage: mutkill ")
        assert all(flag in proc.stdout for flag in cli._FLAGS)

    def test_outputs_equal_an_in_process_run(self, workdir):
        tmp, cfg = workdir
        outs = []
        for d, run in (("spawned", lambda a: spawn(a).returncode), ("in_process", cli.main)):
            out = tmp / d
            common = ["--program", C.corpus_path("fig1"), "--config", cfg, "--out", str(out)]
            assert run(["gen"] + common) == 0
            assert run(["matrix"] + common + ["--tests", str(out / "tests.txt")]) == 0
            outs.append({n: (out / n).read_bytes() for n in ("tests.txt", "matrix.csv")})
        assert outs[0] == outs[1]


class TestArgs:
    def test_defaults(self):
        command, args = cli.parse_args(["all", "--program", "p.mimp"])
        assert command == "all"
        assert args == {"program": "p.mimp", "seeds": None, "mode": None, "config": None,
                        "out": "out", "budget_seconds": None, "rng_seed": None,
                        "operators": None, "tests": None}

    def test_equals_form(self):
        spaced = cli.parse_args(["gen", "--program", "p.mimp", "--budget-seconds", "-1",
                                 "--seeds", "my seeds.txt", "--operators", "SDL"])
        joined = cli.parse_args(["gen", "--program=p.mimp", "--budget-seconds=-1",
                                 "--seeds=my seeds.txt", "--operators=SDL"])
        assert spaced == joined
        assert joined[1]["budget_seconds"] == -1.0

    @pytest.mark.parametrize("argv, message", [
        ([], "missing stage"),
        (["run", "--program", "p.mimp"], "invalid stage 'run'"),
        (["gen", "--prog", "p.mimp"], "unrecognized argument '--prog'"),
        (["gen", "--program"], "argument --program: expected one value"),
        (["gen", "--program", "--out", "o"], "argument --program: expected one value"),
        (["gen", "--program", "p.mimp", "extra"], "unrecognized argument 'extra'"),
        (["gen", "--program", "p.mimp", "--mode", "z3"], "invalid choice 'z3'"),
        (["gen", "--program", "p.mimp", "--budget-seconds", "soon"],
         "invalid float value 'soon'"),
        (["gen", "--out", "o"], "required: --program"),
        # the flags of the deleted external solver backend
        (["gen", "--program", "p.mimp", "--solver", "bounded"],
         "unrecognized argument '--solver'"),
        (["gen", "--program", "p.mimp", "--external-solver-cmd", "x"],
         "unrecognized argument '--external-solver-cmd'"),
    ])
    def test_usage_errors(self, argv, message, capsys):
        with pytest.raises(cli.UsageError, match=message):
            cli.parse_args(argv)
        assert cli.main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: mutkill ") and "mutkill: error: " in err

    def test_bad_config_value_is_a_config_error(self, capsys):
        _, args = cli.parse_args(["gen", "--program", "p.mimp"])
        args["mode"] = "bogus"
        with pytest.raises(cli.ConfigError, match="bad mode 'bogus'"):
            cli._manifest_from_args(args)


class TestErrors:
    def test_missing_program_file(self, tmp_path, capsys):
        rc = run_main(["all", "--program", str(tmp_path / "nope.mimp"),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "error:" in capsys.readouterr().err

    def test_syntax_error_reports_parse_stage(self, tmp_path, capsys):
        bad = tmp_path / "bad.mimp"
        bad.write_text("fn main( { }")
        rc = run_main(["all", "--program", str(bad),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "[parse]" in capsys.readouterr().err

    def test_bad_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text("NOPE = 1\n")
        rc = run_main(["all", "--program", C.corpus_path("abs"),
                       "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 1
        assert "unknown key" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--seeds", "--tests"])
    @pytest.mark.parametrize("pairs", ["x=abc", "x=", "x=1=2", "=1", "x=1, x=2"])
    def test_bad_valuation_file(self, tmp_path, capsys, flag, pairs):
        # the error names the file, the line and the pair
        bad = tmp_path / "valuations.txt"
        bad.write_text(f"x=0\n{pairs}\n")
        rc = run_main(["matrix", "--program", C.corpus_path("abs"), flag, str(bad),
                       "--out", str(tmp_path / "out")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {bad}: line 2: ")
        assert repr(pairs.split(", ")[-1]) in err

    @pytest.mark.parametrize("config", [
        "PL = SMD2MS\n",
        "PL = SMD2MS\nUSE_PRECONDITION = false\n",
        "OPERATORS = LCR\n",  # no mutants
    ])
    @pytest.mark.parametrize("seed, message", [
        ("x=99", "x=99 outside [0, 3]"),
        ("y=1", "missing input 'x'"),
    ])
    def test_bad_seed_is_a_gen_error(self, tmp_path, capsys, config, seed, message):
        # checked as the matrix checks it, whether or not the engine would
        # run the seed
        prog = tmp_path / "p.mimp"
        prog.write_text("input x: int in [0, 3];\n"
                        "fn main() { if (x > 50) { output 1; } else { output x; } }")
        cfg, seeds, out = tmp_path / "cfg.txt", tmp_path / "seeds.txt", tmp_path / "out"
        cfg.write_text(config)
        seeds.write_text(seed + "\n")
        rc = run_main(["gen", "--program", str(prog), "--config", str(cfg),
                       "--seeds", str(seeds), "--out", str(out)])
        assert rc == 1
        assert capsys.readouterr().err == f"error: [gen] {message}\n"
        assert not (out / "tests.txt").exists()

    @pytest.mark.parametrize("flags, config", [
        (["--operators="], ""),
        (["--operators", ","], ""),
        ([], "OPERATORS =\n"),
    ])
    def test_empty_operator_set(self, tmp_path, capsys, flags, config):
        # an empty --operators is an empty set, not the default one
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        out = tmp_path / "out"
        rc = run_main(["tce", "--program", C.corpus_path("abs"), "--config", str(cfg),
                       "--out", str(out), *flags])
        assert rc == 1
        assert capsys.readouterr().err == "error: [mutate] empty operator set\n"
        assert not (out / "tce.tsv").exists()

    @pytest.mark.parametrize("flags, config", [
        (["--budget-seconds=-1"], ""),
        (["--budget-seconds=nan"], ""),
        ([], "MAX_STATES = -5\n"),
        ([], "MAX_DEPTH = -1\n"),
        ([], "STEP_BUDGET = 0\n"),
        ([], "STEP_BUDGET = -5\n"),
    ])
    def test_bad_limit_writes_no_tests(self, tmp_path, capsys, flags, config):
        cfg = tmp_path / "cfg.txt"
        cfg.write_text(config)
        out = tmp_path / "out"
        rc = run_main(["gen", "--program", C.corpus_path("abs"), "--config", str(cfg),
                       "--out", str(out), *flags])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert (config.split(" =")[0] or "BUDGET_SECONDS") in err
        assert not (out / "tests.txt").exists()
