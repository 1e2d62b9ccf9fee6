"""Tests of the benchmark's own checkers and tracer.

    python3 -m unittest discover -s bench -p 'test_*.py'

Each checker must accept the program's real output and reject a doctored
copy of it: a flipped cell, a wrong reference output, an out-of-domain test.
"""

from __future__ import annotations

import os
import shutil
import sys
import tempfile
import types
import unittest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks as C  # noqa: E402
import tracing  # noqa: E402
import workloads as W  # noqa: E402
from mutkill import cli  # noqa: E402


def _program(name: str, workload: str = "corpus") -> W.Program:
    return next(p for p in W.WORKLOADS[workload].programs if p.name == name)


class RealOutputs(unittest.TestCase):
    """One pipeline run on corpus/max2 in the corpus configuration."""

    @classmethod
    def setUpClass(cls):
        cls.wl = W.WORKLOADS["corpus"]
        cls.program = _program("max2")
        cls.tmp = tempfile.mkdtemp(prefix="bench-checks-")
        cls.out = os.path.join(cls.tmp, "max2")
        cli.run_pipeline(cli.parse_config(cls.wl.config_text(1), program=cls.program.path,
                                          out_dir=cls.out))

    @classmethod
    def tearDownClass(cls):
        shutil.rmtree(cls.tmp)

    def doctored(self, name: str, edit) -> str:
        """A copy of the output directory with one file edited."""
        out = os.path.join(self.tmp, f"doctored-{self.id().rsplit('.', 1)[-1]}")
        shutil.rmtree(out, ignore_errors=True)
        shutil.copytree(self.out, out)
        path = os.path.join(out, name)
        with open(path, encoding="utf-8") as f:
            text = f.read()
        with open(path, "w", encoding="utf-8") as f:
            f.write(edit(text))
        return out

    def problems(self, out: str):
        return C.check_program(self.wl, self.program, out, [])

    def test_real_outputs_pass(self):
        self.assertEqual(self.problems(self.out), [])

    def test_flipped_cell_rejected(self):
        def flip(text):
            lines = text.splitlines()
            head, *cells = lines[1].split(",")
            cells[0] = "S" if cells[0] == "K" else "K"
            lines[1] = ",".join([head] + cells)
            return "\n".join(lines) + "\n"
        found = self.problems(self.doctored("matrix.csv", flip))
        self.assertTrue(any("single-mutant replay says" in p for p in found), found)

    def test_out_of_domain_test_rejected(self):
        def widen(text):
            lines = text.splitlines()
            i = next(i for i, line in enumerate(lines) if not line.startswith("#"))
            lines[i] = "a=99,b=0"
            return "\n".join(lines) + "\n"
        found = self.problems(self.doctored("tests.txt", widen))
        self.assertTrue(any("outside [-8, 7]" in p for p in found), found)

    def test_missing_input_rejected(self):
        found = C.check_domains(self.program.source(), [{"a": 1}])
        self.assertTrue(found and "names ['a']" in found[0], found)

    def test_wrong_reference_rejected(self):
        saved = W.REFERENCES["max2"]
        W.REFERENCES["max2"] = lambda a, b: ("terminal", (min(a, b),))
        try:
            found = self.problems(self.out)
        finally:
            W.REFERENCES["max2"] = saved
        self.assertTrue(any("reference says" in p for p in found), found)

    def test_terminal_test_that_does_not_kill_rejected(self):
        with open(os.path.join(self.out, "tests.txt"), encoding="utf-8") as f:
            tests = C.parse_tests(f.read())
        with open(os.path.join(self.out, "matrix.csv"), encoding="utf-8") as f:
            matrix = C.parse_matrix(f.read())
        self.assertEqual(C.check_terminal_kills(matrix, tests, 0), [])
        i = next(i for i, t in enumerate(tests) if t.site == "terminal")
        j = matrix.mutant_ids.index(tests[i].mutant_id)
        cells = [list(r) for r in matrix.cells]
        cells[i][j] = "S"
        doctored = C.Matrix(matrix.mutant_ids, matrix.tests, tuple(map(tuple, cells)))
        self.assertTrue(C.check_terminal_kills(doctored, tests, 0))

    def test_minimized_suite_must_keep_every_kill(self):
        with open(os.path.join(self.out, "matrix.csv"), encoding="utf-8") as f:
            matrix = C.parse_matrix(f.read())
        with open(os.path.join(self.out, "minimized.txt"), encoding="utf-8") as f:
            minimized = W.read_valuations(f.read())
        chosen = [matrix.tests.index(t) for t in minimized]
        self.assertEqual(C.check_minimized(matrix, chosen), [])
        self.assertTrue(C.check_minimized(matrix, chosen[:-1]))

    def test_equivalent_mutant_killed_rejected(self):
        with open(os.path.join(self.out, "matrix.csv"), encoding="utf-8") as f:
            matrix = C.parse_matrix(f.read())
        killed = min(matrix.killed())
        found = C.check_equivalent({killed: "equivalent"}, matrix, lambda m: True)
        self.assertTrue(found and "is killed in the matrix" in found[0], found)

    def test_unkillable_mutant_killed_rejected(self):
        self.assertTrue(C.check_killable([3], lambda m: False))
        self.assertEqual(C.check_killable([3], lambda m: True), [])


class References(unittest.TestCase):
    def test_reference_matches_original_on_every_small_domain(self):
        for name in W.CORPUS_NAMES:
            subject = C.Subject(_program(name))
            found = C.check_reference(
                lambda t: subject.run(0, t, 10_000),
                lambda t: W.reference_outcome(name, subject.source, t),
                subject.domain())
            self.assertEqual(found, [], name)

    def test_reference_matches_wide_programs_on_a_sample(self):
        sample = [{"a": a, "b": b, "x": a, "y": b}
                  for a in (-128, -7, 0, 1, 33, 127) for b in (-128, -3, 0, 2, 100, 127)]
        for name in ("classify", "max2", "divmod", "linear"):
            subject = C.Subject(_program(name, "wide"))
            names = [n for n, _ in W.declared_inputs(subject.source)]
            suite = [{n: t[n] for n in names} for t in sample]
            found = C.check_reference(
                lambda t: subject.run(0, t, 10_000),
                lambda t: W.reference_outcome(name, subject.source, t), suite)
            self.assertEqual(found, [], name)

    def test_seed_inputs_are_reproducible_and_in_domain(self):
        wl = W.WORKLOADS["loops"]
        for p in wl.programs:
            first = wl.seed_inputs(p, 7)
            self.assertEqual(first, wl.seed_inputs(p, 7))
            self.assertEqual(C.check_domains(p.source(), first), [])


class Tracing(unittest.TestCase):
    def test_missing_function_is_reported_absent(self):
        module = types.ModuleType("fake")
        tracer = tracing.Tracer()
        tracer.wrap(module, "gone", "fake.gone", True)
        self.assertIn("fake.gone", tracer.absent)
        report = tracing.metrics(tracer, None, timed=set())
        self.assertTrue(all(m["absent"] for m in report.values()))

    def test_renamed_result_field_is_reported_absent(self):
        module = types.ModuleType("fake")
        module.f = lambda: object()
        tracer = tracing.Tracer()
        tracer.wrap(module, "f", "fake.f", False, lambda r: r.states_created)
        module.f()
        self.assertTrue(any("fake.f result" in a for a in tracer.absent))

    def test_self_time_excludes_children(self):
        module = types.ModuleType("fake")
        module.inner = lambda: sum(range(20000))
        module.outer = lambda: module.inner() + sum(range(20000))
        tracer = tracing.Tracer()
        tracer.wrap(module, "inner", "fake.inner", True)
        tracer.wrap(module, "outer", "fake.outer", True)
        module.outer()
        self.assertAlmostEqual(tracer.self_time["fake.outer"] + tracer.incl["fake.inner"],
                               tracer.incl["fake.outer"], places=6)
        inner, outer = tracer.spans[1], tracer.spans[0]
        self.assertEqual(inner["parent"], outer["id"])


if __name__ == "__main__":
    unittest.main()
