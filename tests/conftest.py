import os
import random
import sys

import pytest

from crysred.arith import PrimeContext


@pytest.fixture(scope="session")
def ctx5():
    return PrimeContext(p=5, f=1, n=8, m=30)


@pytest.fixture(scope="session")
def ctx3():
    return PrimeContext(p=3, f=1, n=6, m=24)


@pytest.fixture(scope="session")
def ctx5r2():
    return PrimeContext(p=5, f=2, n=8, m=30, r=2)


@pytest.fixture(scope="session")
def ctx3r4():
    # r = 4 folds through three reduction rows
    return PrimeContext(p=3, f=2, n=6, m=24, r=4)


@pytest.fixture()
def rng():
    return random.Random(20240817)


def random_of(ctx, rng, unit=False):
    from crysred.arith import OFElem

    while True:
        x = OFElem(ctx, [rng.randrange(ctx.ppow(ctx.n)) for _ in range(ctx.r)])
        if not unit or x.is_unit():
            return x


def random_useries(ctx, rng):
    from useries_ref import series

    return series(ctx, [[rng.randrange(ctx.ppow(ctx.n)) for _ in range(ctx.r)]
                        for _ in range(ctx.m)])


def benchmark_workloads():
    """The benchmark's job lists, `perfbench/workloads.py`, as a module."""
    perfbench = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "perfbench")
    sys.path.insert(0, perfbench)
    try:
        import workloads
    finally:
        sys.path.remove(perfbench)
    return workloads
