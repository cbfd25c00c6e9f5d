"""Per-batch route tables: the decode path past ``MATRIX_NODE_LIMIT``.

Above the limit the decoding graph builds route tables per sub-batch,
from only the batch's distinct defects plus the boundary, with the
same Dijkstra-and-pointer-doubling routine that builds the whole-graph
tables.  These suites pin that choice to be invisible:

* entry by entry, per-batch tables equal the whole-graph tables on the
  batch's local indices (hypothesis, on random graphlike DEMs with
  boundary-less detectors, disconnected components and isolated
  detectors);
* with the limit monkeypatched down, predictions are bit-identical to
  the whole-graph path through ``decode``, ``decode_batch`` (rows and
  packed) and ``workers=2`` shards, for blossom and greedy;
* a syndrome with more distinct defects than the sub-batch cap decodes
  in a sub-batch of its own;
* (slow) a d = 19 × 25 memory experiment — past the real limit —
  decodes without ever building whole-graph matrices.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.decode import MatchingDecoder
from repro.decode import graph as graph_module
from repro.decode.graph import DecodingGraph
from repro.sim import NoiseModel, build_dem, memory_circuit, sample_detectors
from repro.sim.dem import DetectorErrorModel, ErrorMechanism
from repro.surface import rotated_surface_code
from repro.utils.gf2 import PackedBits


@st.composite
def graph_and_batch(draw):
    """A random graphlike DEM plus a batch of sorted defect sets.

    Sparse mechanism lists leave detectors isolated or split into
    components, and only some detectors get a boundary edge; the
    probabilities mix a tie-prone fixed value with continuous ones.
    """
    n = draw(st.integers(2, 14))
    with_boundary = draw(st.sets(st.integers(0, n - 1), max_size=n))
    mechanisms = []
    prob = st.one_of(st.just(0.01), st.floats(0.001, 0.3))
    for d in sorted(with_boundary):
        mechanisms.append(ErrorMechanism(draw(prob), (d,), draw(st.booleans())))
    pairs = draw(
        st.lists(
            st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(
                lambda ab: ab[0] != ab[1]
            ),
            max_size=2 * n,
        )
    )
    for a, b in pairs:
        mechanisms.append(ErrorMechanism(draw(prob), (a, b), draw(st.booleans())))
    dem = DetectorErrorModel(mechanisms, num_detectors=n, num_observables=1)
    sets = draw(
        st.lists(
            st.sets(st.integers(0, n - 1), min_size=1).map(
                lambda s: tuple(sorted(s))
            ),
            min_size=1,
            max_size=6,
        )
    )
    limit = draw(st.integers(2, n))  # always below n + 1 nodes
    return dem, sets, limit


class TestTableEquality:
    @given(graph_and_batch())
    @settings(max_examples=150, deadline=None)
    def test_per_batch_tables_equal_whole_graph_entries(self, case):
        dem, sets, limit = case
        whole = DecodingGraph(dem).ensure_route_tables()
        graph = DecodingGraph(dem)
        with mock.patch.object(graph_module, "MATRIX_NODE_LIMIT", limit):
            assert not graph.uses_whole_tables
            covered = []
            for rows, tables, local_sets in graph.batch_tables(sets):
                covered.extend(rows.tolist())
                members = sorted({d for i in rows for d in sets[i]})
                assert len(members) <= limit - 1 or len(rows) == 1
                nodes = np.array([*members, graph.boundary_index])
                sub = np.ix_(nodes, nodes)
                for name in ("dist", "parity", "W", "use_pair", "pairable"):
                    got = getattr(tables, name)
                    want = getattr(whole, name)[sub]
                    assert got.dtype == want.dtype, name
                    assert np.array_equal(got, want), name
                assert np.array_equal(tables.b_dist, whole.b_dist[nodes])
                assert np.array_equal(tables.b_par, whole.b_par[nodes])
                for i, local in zip(rows, local_sets, strict=True):
                    assert tuple(nodes[list(local)].tolist()) == sets[i]
        assert covered == list(range(len(sets)))
        assert graph._matrices is None


def _circuit(d, p, rounds, defective=None):
    patch = rotated_surface_code(d)
    return memory_circuit(
        patch.code, "Z", rounds, NoiseModel.uniform(p), defective_data=defective
    )


CIRCUITS = {
    "d3-p1e-3": (3, 1e-3, 3, None),
    "d3-p3e-3": (3, 3e-3, 3, None),
    "d5-p1e-3": (5, 1e-3, 5, None),
    "d5-p3e-3": (5, 3e-3, 5, None),
    "d5-untreated": (5, 1e-3, 10, {(3, 3), (5, 5)}),
}

#: Forced node limit, below every circuit above: sub-batches of at most
#: 11 distinct defects.
FORCED_LIMIT = 12


class TestForcedLimit:
    @pytest.mark.parametrize("name", sorted(CIRCUITS))
    @pytest.mark.parametrize("method", ["blossom", "greedy"])
    def test_predictions_bit_identical(self, monkeypatch, name, method):
        circuit = _circuit(*CIRCUITS[name])
        dem = build_dem(circuit)
        det, _ = sample_detectors(circuit, 600, seed=31)
        packed = PackedBits.pack(det.T)
        reference = MatchingDecoder(dem, method=method).decode_batch(det)
        monkeypatch.setattr(graph_module, "MATRIX_NODE_LIMIT", FORCED_LIMIT)

        rows = MatchingDecoder(dem, method=method)
        assert not rows.graph.uses_whole_tables
        np.testing.assert_array_equal(rows.decode_batch(det), reference)
        np.testing.assert_array_equal(
            MatchingDecoder(dem, method=method).decode_batch(packed), reference
        )
        single = MatchingDecoder(dem, method=method, cache_size=0)
        singles = [single.decode(row) for row in det[:80]]
        np.testing.assert_array_equal(singles, reference[:80])
        sharded = MatchingDecoder(dem, method=method, workers=2)
        sharded.min_shard_syndromes = 4
        np.testing.assert_array_equal(sharded.decode_batch(det), reference)
        assert sharded.pool_failures == 0
        for dec in (rows, single, sharded):
            assert dec.graph._matrices is None

    def test_oversize_syndrome_decodes_alone(self, monkeypatch):
        dem = build_dem(_circuit(*CIRCUITS["d5-p1e-3"]))
        sets = [(3,), tuple(range(0, 2 * FORCED_LIMIT, 2)), (5, 40)]
        assert len(sets[1]) > FORCED_LIMIT - 1
        rows = np.zeros((len(sets), dem.num_detectors), dtype=np.uint8)
        for row, defects in zip(rows, sets, strict=True):
            row[list(defects)] = 1
        reference = MatchingDecoder(dem).decode_batch(rows)
        monkeypatch.setattr(graph_module, "MATRIX_NODE_LIMIT", FORCED_LIMIT)
        dec = MatchingDecoder(dem)
        runs = [r.tolist() for r, _, _ in dec.graph.batch_tables(sets)]
        assert runs == [[0], [1], [2]]
        np.testing.assert_array_equal(dec.decode_batch(rows), reference)


@pytest.mark.slow
def test_d19_memory_experiment_past_the_limit():
    """d = 19 × 25 rounds has 4,680 detectors, above the real limit:
    decoding runs on per-batch tables and never builds the whole-graph
    matrices."""
    import repro.eval.montecarlo as mc

    mc.clear_decoder_cache()
    try:
        result = mc.memory_experiment(
            rotated_surface_code(19).code,
            "Z",
            NoiseModel.uniform(1e-3),
            rounds=25,
            shots=200,
            seed=19,
        )
        (decoder,) = mc._DECODER_CACHE.values()
        assert decoder.num_detectors + 1 > graph_module.MATRIX_NODE_LIMIT
        assert decoder.graph._matrices is None
        assert result.errors <= 2
    finally:
        mc.clear_decoder_cache()
