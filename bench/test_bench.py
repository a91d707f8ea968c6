"""Self-tests for the benchmark: gate, span arithmetic, tracer and runner.

    python3 -m unittest discover -s bench -p 'test_*.py'

Run from the root of a source checkout (phstab is imported from ``src/``).
"""

from __future__ import annotations

import os
import random
import shutil
import subprocess
import sys
import tempfile
import unittest
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))
SCRATCH = os.path.join(ROOT, ".bench_work")


def scratch_dir() -> str:
    os.makedirs(SCRATCH, exist_ok=True)
    return tempfile.mkdtemp(dir=SCRATCH)

import gate  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from tracer import Span, Tracer, self_times  # noqa: E402

GOOD = "\n".join(
    [
        "sup_norm=3.5",
        "crossings=4",
        "intervals=5",
        "composed_cost=2",
        "exact_bottleneck=1/3",
        "holds=true",
    ]
)
EXPECT = {"sup_norm": Fraction(7, 2), "crossings": 4}


class GateTest(unittest.TestCase):
    def test_accepts_a_consistent_report(self):
        self.assertEqual(gate.check_verify(0, GOOD, EXPECT), [])

    def test_rejects_every_tampered_line(self):
        tampered = [
            GOOD.replace("sup_norm=3.5", "sup_norm=3.25"),
            GOOD.replace("crossings=4", "crossings=5"),
            GOOD.replace("intervals=5", "intervals=4"),
            GOOD.replace("composed_cost=2", "composed_cost=4"),
            GOOD.replace("exact_bottleneck=1/3", "exact_bottleneck=3"),
            GOOD.replace("holds=true", "holds=false"),
            GOOD.replace("holds=true", "holds=yes"),
            GOOD.replace("sup_norm=3.5", "sup_norm=abc"),
            GOOD + "\nextra=1",
            "\n".join(GOOD.splitlines()[:-1]),
            "\n".join(reversed(GOOD.splitlines())),
        ]
        for text in tampered:
            with self.subTest(text=text):
                self.assertNotEqual(gate.check_verify(0, text, EXPECT), [])

    def test_rejects_a_nonzero_exit(self):
        self.assertEqual(gate.check_verify(2, GOOD, EXPECT), ["exit 2"])

    def test_distance_checks(self):
        shift = {"distance": Fraction(1, 2)}
        self.assertEqual(gate.check_distance(0, "distance 0.5", shift, {}), [])
        self.assertNotEqual(gate.check_distance(0, "distance 0.25", shift, {}), [])
        self.assertNotEqual(gate.check_distance(0, "distance inf", shift, {}), [])
        pair = {"sup_norm": Fraction(1), "at_most": "twin"}
        self.assertEqual(gate.check_distance(0, "distance 1", pair, {}), [])
        self.assertNotEqual(gate.check_distance(0, "distance 1.5", pair, {}), [])
        twin = {"twin": Fraction(1, 4)}
        self.assertNotEqual(gate.check_distance(0, "distance 1/2", pair, twin), [])


class SelfTimeTest(unittest.TestCase):
    def test_self_times_sum_to_root_inclusive_time(self):
        rng = random.Random(3)
        spans = []

        def grow(span_id, parent, start, end, depth):
            spans.append(Span(f"s{span_id}", start, end, span_id, parent))
            next_id = span_id + 1
            cursor = start
            while depth < 4 and cursor < end:
                lo = cursor + rng.random() * (end - cursor) / 3
                hi = lo + rng.random() * (end - lo) / 2
                if hi <= lo:
                    break
                next_id = grow(next_id, span_id, lo, hi, depth + 1)
                cursor = hi
            return next_id

        grow(0, None, 0.0, 10.0, 0)
        self.assertGreater(len(spans), 5)
        own = self_times(spans)
        self.assertAlmostEqual(sum(own.values()), 10.0, places=9)
        self.assertTrue(all(v >= 0 for v in own.values()))

    def test_overlapping_children_are_counted_once(self):
        spans = [
            Span("root", 0.0, 10.0, 0, None),
            Span("a", 1.0, 4.0, 1, 0),
            Span("b", 3.0, 6.0, 2, 0),
        ]
        self.assertAlmostEqual(self_times(spans)[0], 5.0)


class TracerTest(unittest.TestCase):
    def setUp(self):
        self.tmp = scratch_dir()

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def _instance(self):
        path = os.path.join(self.tmp, "inst.txt")
        workloads.write_instance(
            path,
            [(0,), (1,), (0, 1)],
            [Fraction(0), Fraction(1), Fraction(2)],
            [Fraction(1), Fraction(1, 4), Fraction(3)],
        )
        return path

    def test_spans_cover_from_import_call_sites_and_uninstall_restores(self):
        from phstab import cli, stability

        original = stability.interpolate
        tracer = Tracer()
        tracer.install()
        try:
            self.assertIsNot(stability.interpolate, original)
            status, text = cli.run_command(["verify", self._instance(), "--machine"])
        finally:
            tracer.uninstall()
        self.assertIs(stability.interpolate, original)
        self.assertEqual(status, 0)
        rows = tracer.summary()
        self.assertEqual(rows["cli.run_command"]["calls"], 1)
        self.assertEqual(rows["stability.verify_stability"]["calls"], 1)
        self.assertGreater(rows["interpolation.interpolate"]["calls"], 0)
        roots = [s for s in tracer.spans if s.parent is None]
        self.assertEqual([s.name for s in roots], ["cli.run_command"])
        own = sum(r["self_s"] for r in rows.values())
        self.assertAlmostEqual(own, roots[0].end - roots[0].start, places=9)
        fields = gate.parse_machine(text)
        self.assertEqual(tracer.counts["interpolation.crossings"], fields["crossings"])
        self.assertEqual(tracer.counts["stability.intervals"], fields["intervals"])

    def test_missing_names_are_absent_not_errors(self):
        tracer = Tracer(traced={"cli": ("run_command", "no_such_fn"), "no_such_mod": ("f",)})
        tracer.install()
        tracer.uninstall()
        self.assertEqual(sorted(tracer.absent), ["cli.no_such_fn", "no_such_mod.f"])
        self.assertEqual(tracer.summary()["cli.no_such_fn"]["calls"], 0)


class _FakeCli:
    def __init__(self, replies):
        self.replies = list(replies)

    def run_command(self, argv):
        reply = self.replies.pop(0)
        if isinstance(reply, BaseException):
            raise reply
        return reply


class RunnerTest(unittest.TestCase):
    op = workloads.Op("shift", ("bottleneck", "a", "b"), "distance", {"distance": Fraction(1, 2)})

    def test_escaping_exception_is_a_recorded_failure(self):
        runner = run.Runner(_FakeCli([RecursionError("deep"), (1, "error: x")]))
        first = runner.run(self.op)
        second = runner.run(self.op)
        self.assertEqual(first.failure, "RecursionError")
        self.assertEqual(second.failure, "exit 1")
        self.assertTrue(first.problems and second.problems)

    def test_changed_output_on_a_repeat_fails(self):
        runner = run.Runner(_FakeCli([(0, "distance 0.5"), (0, "distance 1/2")]))
        self.assertEqual(runner.run(self.op).problems, [])
        self.assertNotEqual(runner.run(self.op).problems, [])


class WorkloadTest(unittest.TestCase):
    def _files(self, seed):
        tmp = scratch_dir()
        try:
            wl = workloads.build("verify-dense", seed, tmp)
            contents = {}
            for name in sorted(os.listdir(tmp)):
                with open(os.path.join(tmp, name), encoding="utf-8") as fh:
                    contents[name] = fh.read()
            return wl, contents
        finally:
            shutil.rmtree(tmp)

    def test_same_seed_same_inputs(self):
        wl, first = self._files(5)
        self.assertEqual(self._files(5)[1], first)
        self.assertNotEqual(self._files(6)[1], first)
        self.assertEqual(len(wl.ops), workloads.DENSE_INSTANCES + 1)
        self.assertEqual(wl.ops[-1].argv, wl.ops[0].argv)


class CrossingCountTest(unittest.TestCase):
    def test_matches_phstab_schedule(self):
        from phstab.generate import GeneratorConfig, generate_instance
        from phstab.interpolation import crossing_times

        inst = generate_instance(GeneratorConfig(seed=4, num_vertices=6))
        f0, f1 = inst.functions
        self.assertEqual(
            workloads.crossing_count(list(f0.values), list(f1.values)),
            len(crossing_times(f0, f1)),
        )


class BareDirectoryTest(unittest.TestCase):
    def test_fails_without_the_program_sources(self):
        tmp = scratch_dir()
        try:
            shutil.copytree(HERE, os.path.join(tmp, "bench"))
            argv = [sys.executable, "bench/run.py", "--workload", "verify-dense",
                    "--seed", "1", "--seconds", "1", "--trace", "0"]
            proc = subprocess.run(argv, cwd=tmp, capture_output=True, text=True, timeout=60)
        finally:
            shutil.rmtree(tmp)
        self.assertNotEqual(proc.returncode, 0)
        self.assertEqual(proc.stdout, "")


if __name__ == "__main__":
    unittest.main()
