"""Tests of the benchmark's tracer: self-time arithmetic and clean removal.

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

from __future__ import annotations

import sys
import types
import unittest

from tracer import Tracer, merge_snapshots


class FakeClock:
    """A clock the traced functions advance explicitly."""

    def __init__(self) -> None:
        self.now = 0.0

    def __call__(self) -> float:
        return self.now

    def spend(self, seconds: float) -> None:
        self.now += seconds


def _layered(clock: FakeClock):
    """outer spends 1s, calls inner (2s, calls leaf 4s) twice, spends 8s."""

    class Layers:
        def leaf(self):
            clock.spend(4.0)
            return "leaf"

        def inner(self):
            clock.spend(2.0)
            return self.leaf()

        def outer(self):
            clock.spend(1.0)
            self.inner()
            self.inner()
            clock.spend(8.0)
            return None

    return Layers


class SelfTimeTest(unittest.TestCase):
    def setUp(self) -> None:
        self.clock = FakeClock()
        self.tracer = Tracer(clock=self.clock)
        self.Layers = _layered(self.clock)
        for attr in ("outer", "inner", "leaf"):
            self.tracer.wrap(self.Layers, attr, attr)

    def tearDown(self) -> None:
        self.tracer.remove()

    def test_inclusive_and_self_time(self) -> None:
        self.Layers().outer()
        snap = self.tracer.snapshot()
        self.assertEqual(snap["outer"]["calls"], 1)
        self.assertEqual(snap["inner"]["calls"], 2)
        self.assertEqual(snap["leaf"]["calls"], 2)
        # outer: 1 + 2 * (2 + 4) + 8 = 21 inclusive, 9 its own.
        self.assertEqual(snap["outer"]["incl_s"], 21.0)
        self.assertEqual(snap["outer"]["self_s"], 9.0)
        self.assertEqual(snap["inner"]["incl_s"], 12.0)
        self.assertEqual(snap["inner"]["self_s"], 4.0)
        self.assertEqual(snap["leaf"]["incl_s"], 8.0)
        self.assertEqual(snap["leaf"]["self_s"], 8.0)
        total_self = sum(values["self_s"] for values in snap.values())
        self.assertEqual(total_self, snap["outer"]["incl_s"])

    def test_untraced_function_in_between_counts_as_self(self) -> None:
        clock = self.clock

        def helper(layers):
            clock.spend(16.0)
            return layers.leaf()

        self.Layers.via_helper = lambda layers: helper(layers)
        self.tracer.wrap(self.Layers, "via_helper", "via_helper")
        self.Layers().via_helper()
        snap = self.tracer.snapshot()
        self.assertEqual(snap["via_helper"]["incl_s"], 20.0)
        self.assertEqual(snap["via_helper"]["self_s"], 16.0)

    def test_recursion_counts_calls_but_not_time_twice(self) -> None:
        clock = self.clock

        class Recursive:
            def down(self, depth):
                clock.spend(1.0)
                if depth:
                    self.down(depth - 1)

        self.tracer.wrap(Recursive, "down", "down")
        Recursive().down(2)
        snap = self.tracer.snapshot()["down"]
        self.assertEqual(snap["calls"], 3)
        self.assertEqual(snap["incl_s"], 3.0)
        self.assertEqual(snap["self_s"], 3.0)

    def test_exception_closes_the_span(self) -> None:
        clock = self.clock

        class Failing:
            def boom(self):
                clock.spend(5.0)
                raise ValueError("boom")

        self.tracer.wrap(Failing, "boom", "boom")
        self.Layers.outer_failing = lambda layers: Failing().boom()
        self.tracer.wrap(self.Layers, "outer_failing", "outer_failing")
        with self.assertRaises(ValueError):
            self.Layers().outer_failing()
        snap = self.tracer.snapshot()
        self.assertEqual(snap["boom"]["incl_s"], 5.0)
        self.assertEqual(snap["outer_failing"]["self_s"], 0.0)
        self.Layers().leaf()
        self.assertEqual(self.tracer.snapshot()["leaf"]["self_s"], 4.0)

    def test_classifier_counts_hits_and_names_can_depend_on_arguments(self) -> None:
        class Ops:
            def call(self, op):
                return op == "good"

        self.tracer.wrap(Ops, "call", lambda ops, op: f"op.{op}", classify=bool)
        for op in ("good", "bad", "good"):
            Ops().call(op)
        snap = self.tracer.snapshot()
        self.assertEqual((snap["op.good"]["calls"], snap["op.good"]["hits"]), (2, 2))
        self.assertEqual((snap["op.bad"]["calls"], snap["op.bad"]["hits"]), (1, 0))

    def test_reset_zeroes_counts(self) -> None:
        self.Layers().outer()
        self.tracer.reset()
        self.assertTrue(
            all(v == 0 for values in self.tracer.snapshot().values() for v in values.values())
        )


class RemovalTest(unittest.TestCase):
    def test_methods_come_back_unchanged(self) -> None:
        Layers = _layered(FakeClock())
        originals = {attr: Layers.__dict__[attr] for attr in ("outer", "inner", "leaf")}
        tracer = Tracer()
        for attr in originals:
            tracer.wrap(Layers, attr, attr)
        self.assertTrue(all(Layers.__dict__[a] is not f for a, f in originals.items()))
        tracer.remove()
        self.assertTrue(all(Layers.__dict__[a] is f for a, f in originals.items()))
        Layers().outer()
        self.assertEqual(tracer.snapshot()["outer"]["calls"], 0)

    def test_stacked_wrappers_unwind_in_order(self) -> None:
        Layers = _layered(FakeClock())
        original = Layers.__dict__["leaf"]
        first, second = Tracer(), Tracer()
        first.wrap(Layers, "leaf", "leaf")
        second.wrap(Layers, "leaf", "leaf")
        Layers().leaf()
        self.assertEqual(first.snapshot()["leaf"]["calls"], 1)
        self.assertEqual(second.snapshot()["leaf"]["calls"], 1)
        second.remove()
        first.remove()
        self.assertIs(Layers.__dict__["leaf"], original)

    def test_module_function_replaced_in_every_importer(self) -> None:
        home = types.ModuleType("perfbench_fixture_home")
        importer = types.ModuleType("perfbench_fixture_importer")
        bystander = types.ModuleType("unrelated_fixture")

        def work():
            return 42

        home.work = importer.work = bystander.work = work
        modules = {m.__name__: m for m in (home, importer, bystander)}
        sys.modules.update(modules)
        try:
            tracer = Tracer()
            tracer.wrap(home, "work", "work", module_prefix="perfbench_fixture")
            self.assertIsNot(home.work, work)
            self.assertIs(importer.work, home.work)
            self.assertIs(bystander.work, work)
            self.assertEqual(importer.work(), 42)
            self.assertEqual(tracer.snapshot()["work"]["calls"], 1)
            tracer.remove()
            self.assertIs(home.work, work)
            self.assertIs(importer.work, work)
        finally:
            for name in modules:
                del sys.modules[name]


class MergeTest(unittest.TestCase):
    def test_sums_across_processes(self) -> None:
        merged = merge_snapshots(
            [
                {"a": {"calls": 1, "incl_s": 1.5, "self_s": 1.0, "hits": 1}},
                {"a": {"calls": 2, "incl_s": 0.5, "self_s": 0.5, "hits": 0},
                 "b": {"calls": 3, "incl_s": 1.0, "self_s": 1.0, "hits": 3}},
            ]
        )
        self.assertEqual(merged["a"], {"calls": 3, "incl_s": 2.0, "self_s": 1.5, "hits": 1})
        self.assertEqual(merged["b"]["calls"], 3)


if __name__ == "__main__":
    unittest.main()
