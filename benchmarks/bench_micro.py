"""Micro-benchmarks for the substrate data structures and curve ops.

Complements E9: where E9 measures whole-scheduler per-packet cost, these
isolate the indexed heap and the O(1) runtime-curve updates of Fig. 8, so
regressions can be localized.
"""

import random

import pytest

from repro.core.curves import ServiceCurve
from repro.core.runtime_curves import RuntimeCurve
from repro.util.heap import IndexedHeap

N = 1024


@pytest.fixture
def rng():
    return random.Random(0xBEEF)


def test_heap_update_cycle(benchmark, rng):
    heap = IndexedHeap()
    for i in range(N):
        heap.push(i, rng.random())

    def work():
        for i in range(0, N, 8):
            heap.update(i, rng.random())
        return heap.peek()

    benchmark(work)


def test_heap_push_pop(benchmark, rng):
    keys = [rng.random() for _ in range(N)]

    def work():
        heap = IndexedHeap()
        for i, key in enumerate(keys):
            heap.push(i, key)
        while heap:
            heap.pop()

    benchmark(work)


def test_runtime_curve_update(benchmark):
    spec = ServiceCurve(m1=2000.0, d=0.01, m2=1000.0)

    def work():
        curve = RuntimeCurve.from_spec(spec, 0.0, 0.0)
        t, c = 0.0, 0.0
        for _ in range(100):
            t += 0.02
            c += 15.0
            curve.min_with(spec, t, c)
            curve.inverse(c + 100.0)
        return curve

    benchmark(work)


def test_piecewise_min(benchmark):
    a = ServiceCurve(m1=2000.0, d=0.01, m2=1000.0).to_piecewise()
    b = ServiceCurve(m1=0.0, d=0.05, m2=3000.0).to_piecewise()

    def work():
        return a.min_with(b.shifted(0.01, 5.0))

    benchmark(work)
