"""Seed pins for the fig. 11(b) and fig. 13(b) benchmarks.

The figure benchmarks are ``slow`` and assert only shapes, so a change
to the deformation or distance layer could move their numbers without
failing anything.  These pins hold a few of their cells to values
recorded with the networkx distance and the all-pairs commutation scans
(the formulations kept in ``deform_oracles.py``): the same seeds must
give the same post-removal ``(dX, dZ)`` and the same yield successes.
"""

from __future__ import annotations

import pytest

from repro.baselines import asc_defect_removal
from repro.codes.distance import graph_distance
from repro.defects import CosmicRayModel
from repro.deform import defect_removal
from repro.eval import yield_rate
from repro.surface import rotated_surface_code

#: ``(d, defects, sample) -> {policy: (dX, dZ)}`` for fig. 11(b) cells;
#: the benchmark seeds sample ``s`` of ``k`` defects with ``100 s + k``.
FIG11B_PINS = {
    (9, 10, 0): {"asc_s": (4, 5), "surf_deformer": (6, 5)},
    (9, 20, 1): {"asc_s": (5, 3), "surf_deformer": (6, 3)},
    (9, 30, 2): {"asc_s": (5, 3), "surf_deformer": (5, 9)},
    (15, 10, 0): {"asc_s": (10, 10), "surf_deformer": (11, 10)},
    (15, 30, 0): {"asc_s": (11, 11), "surf_deformer": (15, 11)},
}

#: ``faults -> {policy: successes}`` over the first five l = 13 → 9
#: samples of the fig. 13(b) stream for that fault count (seed k + 1).
FIG13B_SAMPLES = 5
FIG13B_PINS = {
    4: {"asc_s": 4, "surf_deformer": 5},
    8: {"asc_s": 1, "surf_deformer": 3},
}


def post_removal_distance(policy: str, d: int, k: int, seed: int) -> tuple[int, int]:
    patch = rotated_surface_code(d)
    defects = CosmicRayModel(seed=seed).sample_defective_qubits(
        patch.all_qubit_coords(), k
    )
    if policy == "surf_deformer":
        defect_removal(patch, defects, compute_distances=False)
    else:
        asc_defect_removal(patch, defects)
    return graph_distance(patch.code, "X"), graph_distance(patch.code, "Z")


@pytest.mark.parametrize(("d", "k", "sample"), sorted(FIG11B_PINS))
@pytest.mark.parametrize("policy", ["asc_s", "surf_deformer"])
def test_fig11b_cells(policy, d, k, sample):
    expected = FIG11B_PINS[(d, k, sample)][policy]
    assert post_removal_distance(policy, d, k, 100 * sample + k) == expected


@pytest.mark.parametrize("faults", sorted(FIG13B_PINS))
@pytest.mark.parametrize("policy", ["asc_s", "surf_deformer"])
def test_fig13b_yield_samples(policy, faults):
    rate = yield_rate(policy, 13, faults, 9, samples=FIG13B_SAMPLES, seed=faults + 1)
    assert round(rate * FIG13B_SAMPLES) == FIG13B_PINS[faults][policy]
