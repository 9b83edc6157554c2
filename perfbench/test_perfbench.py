"""Tests of the benchmark itself (not of the library).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import json
import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads as W  # noqa: E402


def first_op(workload, seed, pred):
    for op in W.stream(workload, seed):
        if pred(op):
            return op
    raise AssertionError("unreachable")


class GeneratorTest(unittest.TestCase):
    def test_same_seed_same_inputs(self):
        for w in W.WORKLOADS:
            self.assertEqual(W.input_digest(w, 7, 300),
                             W.input_digest(w, 7, 300))

    def test_other_seed_other_inputs(self):
        for w in W.WORKLOADS:
            self.assertNotEqual(W.input_digest(w, 7, 300),
                                W.input_digest(w, 8, 300))

    def test_cli_share_about_a_tenth(self):
        for w in W.WORKLOADS:
            ops = [op for _, op in zip(range(3000), W.stream(w, 1))]
            share = sum(op["cli"] for op in ops) / len(ops)
            self.assertGreater(share, 0.05, w)
            self.assertLess(share, 0.15, w)

    def test_same_disc_pairs_share_the_screens(self):
        op = first_op("division-certify", 3,
                      lambda o: o["args"].get("how") == "same-disc")
        a = op["args"]
        self.assertIsNone(a["expect"])
        self.assertEqual(len(a["lhs"]["odd"]), len(a["rhs"]["odd"]))
        self.assertEqual(W.herm_disc(a["alg"], a["lhs"]["odd"]),
                         W.herm_disc(a["alg"], a["rhs"]["odd"]))

    def test_quat_mul_matches_library(self):
        import quatwitt as Q

        rng = random.Random(5)
        for ab in W.SPLIT_ALGEBRAS + W.DIVISION_ALGEBRAS:
            A = Q.QuatAlgebra(*ab)
            for _ in range(20):
                x = [rng.randint(-5, 5) for _ in range(4)]
                y = [rng.randint(-5, 5) for _ in range(4)]
                lib = A.element(*map(Fraction, x)) * A.element(*map(Fraction, y))
                self.assertEqual(list(lib.coords), W.quat_mul(ab, x, y))


class ProbeTest(unittest.TestCase):
    def test_each_op_takes_the_readings_around_it(self):
        from probe import CAL_WINDOW, calibration_per_op

        # readings taken before ops 0, 3 and 6 and after the last op (8)
        marks, readings = [0, 3, 6, 8], [1.0, 2.0, 4.0, 8.0]
        per_op = calibration_per_op(marks, readings, 8)
        self.assertEqual(CAL_WINDOW, 2)
        self.assertEqual(per_op[0], 2.0)   # readings 1 | 2, 4
        self.assertEqual(per_op[3], 3.0)   # readings 1, 2 | 4, 8
        self.assertEqual(per_op[7], 4.0)   # readings 2, 4 | 8

    def test_normalized_scales_to_the_reference(self):
        from probe import REFERENCE_S, normalized

        self.assertAlmostEqual(normalized(0.010, 2 * REFERENCE_S), 0.005)


class CheckerTest(unittest.TestCase):
    """The checker must flag a deliberately wrong answer."""

    @classmethod
    def setUpClass(cls):
        import ops

        cls.ops = ops

    def assertFlags(self, runner, op, result):
        prep = runner.prepare(op)
        with self.assertRaises(self.ops.CheckFailed):
            runner.check(op, prep, result)

    def test_wrong_witt_verdict(self):
        runner = self.ops.Runner("wq-forms")
        op = first_op("wq-forms", 1, lambda o: o["kind"] == "witt_equal"
                      and o["args"]["expect"] == "equal" and not o["cli"])
        prep = runner.prepare(op)
        self.assertEqual(runner.check(op, prep, prep.call()), "ok")
        self.assertFlags(runner, op, "distinct")

    def test_wrong_witt_class(self):
        import quatwitt as Q

        runner = self.ops.Runner("wq-forms")
        op = first_op("wq-forms", 1, lambda o: o["kind"] == "witt_class")
        q = Q.qf(op["args"]["diag"])
        self.assertFlags(runner, op, Q.witt_class(q.perp(Q.qf([3]))))

    def test_wrong_isotropy(self):
        runner = self.ops.Runner("wq-forms")
        op = first_op("wq-forms", 1, lambda o: o["kind"] == "is_isotropic"
                      and o["args"]["expect"] is True)
        self.assertFlags(runner, op, False)

    def test_division_distinct_on_equal_pair_fails_unknown_counts(self):
        runner = self.ops.Runner("division-certify")
        op = first_op("division-certify", 2, lambda o: o["kind"] ==
                      "mixed_equal" and o["args"]["expect"] == "equal"
                      and not o["cli"])
        self.assertFlags(runner, op, "distinct")
        prep = runner.prepare(op)
        self.assertEqual(runner.check(op, prep, "unknown"), "unknown")

    def test_split_verdict_against_second_nilpotent(self):
        runner = self.ops.Runner("mixed-split")
        op = first_op("mixed-split", 4, lambda o: o["kind"] == "mixed_equal"
                      and not o["cli"])
        prep = runner.prepare(op)
        right = prep.call()
        self.assertEqual(runner.check(op, prep, right), "ok")
        self.assertFlags(runner, op,
                         "distinct" if right == "equal" else "equal")

    def test_forged_certificate(self):
        import quatwitt as Q

        runner = self.ops.Runner("division-certify")
        op = first_op("division-certify", 2,
                      lambda o: o["kind"] == "certificate")
        prep = runner.prepare(op)
        cert = prep.call()
        self.assertEqual(runner.check(op, prep, cert), "ok")
        A = prep.ctx.algebra
        bogus = tuple(tuple(A.one().scale(k + 1) for k in range(len(w)))
                      for w in cert.witness)
        self.assertFlags(runner, op, Q.hermitian.HyperbolicityResult(
            "hyperbolic", bogus))


class RunTest(unittest.TestCase):
    def run_py(self, cwd, *args):
        return subprocess.run(
            [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
            cwd=cwd, capture_output=True, text=True, timeout=170)

    def test_traced_worker_reports_layers(self):
        env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
        with tempfile.TemporaryDirectory() as tmp:
            spans = Path(tmp) / "spans.jsonl"
            out = subprocess.run(
                [sys.executable, str(HERE / "worker.py"), "--workload",
                 "mixed-split", "--seed", "1", "--count", "30", "--trace",
                 str(spans)], cwd=ROOT, env=env, capture_output=True,
                text=True, timeout=170, check=True)
            doc = json.loads(out.stdout.splitlines()[-1])
            self.assertTrue(spans.read_text().strip())
        self.assertEqual(len(doc["records"]), 30)
        for record in doc["records"]:  # each op carries a probe reading
            self.assertGreater(record[5], 0)
        self.assertGreater(doc["layers"]["quaternions.Quaternion.__mul__"][0], 0)
        for calls, total, self_s in doc["layers"].values():
            self.assertLessEqual(self_s, total + 1e-9)

    def test_short_run_reports_every_metric(self):
        proc = self.run_py(ROOT, "--workload", "wq-forms", "--seed", "1",
                           "--seconds", "1", "--trace", "0")
        self.assertEqual(proc.returncode, 0, proc.stderr)
        doc = json.loads(proc.stdout.splitlines()[-1])
        self.assertEqual(set(doc), {"correct", "attempted", "failed",
                                    "metrics"})
        self.assertTrue(doc["correct"])
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        self.assertEqual(set(doc["metrics"]),
                         {m["name"] for m in spec["end_to_end"]})
        for m in spec["end_to_end"]:
            self.assertEqual(doc["metrics"][m["name"]]["unit"], m["unit"])
            self.assertGreater(doc["metrics"][m["name"]]["value"], 0)

    def test_refuses_without_sources(self):
        with tempfile.TemporaryDirectory() as tmp:
            shutil.copy(ROOT / "BENCHMARK.json", tmp)
            shutil.copytree(HERE, Path(tmp) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = self.run_py(tmp, "--workload", "wq-forms", "--seed", "1",
                               "--seconds", "1", "--trace", "0")
        self.assertNotEqual(proc.returncode, 0)
        self.assertNotIn('"correct"', proc.stdout)


if __name__ == "__main__":
    unittest.main()
