"""Shared helpers for the table/figure regeneration benchmarks.

Each benchmark prints the same rows/series the paper reports.  Absolute
numbers come from this repository's own simulator and analytic models,
so they differ from the authors' testbed; the *shape* assertions (who
wins, by what rough factor, where crossovers fall) are what each
benchmark checks.

Monte-Carlo sample counts are deliberately laptop-sized; set
``REPRO_BENCH_SCALE`` (default 1.0) to scale shots/samples up.
"""

import sys
from pathlib import Path

import pytest

from repro.utils.env import env_float

# Reference formulations (tests/decode_oracles.py) serve as baselines.
sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "tests"))


def bench_scale() -> float:
    return env_float("REPRO_BENCH_SCALE", 1.0)


def scaled(n: int, minimum: int = 10) -> int:
    return max(minimum, int(n * bench_scale()))


@pytest.fixture
def table():
    """Collect and pretty-print rows at the end of a benchmark."""

    class Table:
        def __init__(self):
            self.rows = []

        def add(self, *cells):
            self.rows.append(cells)

        def show(self, header=()):
            print()
            if header:
                print(" | ".join(str(h) for h in header))
                print("-" * (3 * len(header) + sum(len(str(h)) for h in header)))
            for row in self.rows:
                print(" | ".join(str(c) for c in row))

    return Table()
