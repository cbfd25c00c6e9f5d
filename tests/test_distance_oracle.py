"""``graph_distance`` pinned to the networkx formulation and to brute force.

The product path runs one unweighted ``csgraph.shortest_path`` call from
the crossing-edge endpoints of the doubled detection graph; the oracle
in ``deform_oracles.py`` builds the same graph in networkx and runs one
Dijkstra per vertex.  They must agree on every code the deformation
layer produces — final codes of the seeded corpus and every candidate
Algorithms 1 and 2 score on the way — including which ``ValueError``
they raise.
"""

from __future__ import annotations

import pytest

import repro.deform.enlargement as enlargement_module
import repro.deform.removal as removal_module
from deform_oracles import (
    deformed_corpus,
    logical_qubit_count,
    networkx_graph_distance,
)
from repro.codes import StabilizerGenerator
from repro.codes.distance import brute_force_distance, graph_distance
from repro.defects import CosmicRayModel
from repro.deform import CodeDeformationUnit, defect_removal
from repro.pauli import PauliOp
from repro.surface import rotated_surface_code
from repro.utils import gf2_independent_rows

#: Brute force enumerates 2^k cosets; at most this many independent
#: same-basis generators keeps one code under a second.
BRUTE_FORCE_GENERATORS = 16


def outcome(fn, code, basis):
    """``fn(code, basis)``, or the ``ValueError`` message it raised."""
    try:
        return fn(code, basis)
    except ValueError as exc:
        return f"ValueError: {exc}"


@pytest.mark.parametrize("basis", ["X", "Z"])
def test_corpus_matches_networkx_oracle(basis):
    corpus = deformed_corpus()
    assert {name.rsplit("-", 1)[1] for name, _ in corpus} == {
        "removal",
        "unit",
        "asc_s",
    }
    assert {name.split("-", 1)[0] for name, _ in corpus} == {"d3", "d5", "d7", "d9"}
    outcomes = []
    for name, patch in corpus:
        expected = outcome(networkx_graph_distance, patch.code, basis)
        got = outcome(graph_distance, patch.code, basis)
        assert got == expected, name
        outcomes.append(got)
    # ASC-S leaves some logicals on undetected qubits: the error path is
    # compared too.
    assert any(isinstance(o, str) for o in outcomes)


def test_corpus_matches_brute_force_where_feasible():
    """Equal to brute force on one-logical codes, never above it.

    Every operator brute force enumerates (the tracked logical times
    same-basis stabilizers and gauges) is an undetectable odd-crossing
    chain, so the graph distance is at most the brute-force one, with
    equality when the code encodes one logical qubit.
    """
    compared = 0
    for name, patch in deformed_corpus():
        code = patch.code
        sizes = [
            len(gf2_independent_rows(code.parity_matrix(b, include_gauges=True)))
            for b in "XZ"
        ]
        if max(sizes) > BRUTE_FORCE_GENERATORS:
            continue
        single = logical_qubit_count(code) == 1
        for basis in "XZ":
            graph = outcome(graph_distance, code, basis)
            if isinstance(graph, str):
                continue  # not graphlike here; brute force has no counterpart
            exact = brute_force_distance(code, basis)
            assert graph <= exact, (name, basis)
            if single:
                assert graph == exact, (name, basis)
                compared += 1
    assert compared >= 30


@pytest.mark.xfail(
    strict=True,
    reason="deformation can leave a second logical qubit (see ROADMAP)",
)
def test_corpus_codes_encode_one_logical_qubit():
    extra = [
        name for name, patch in deformed_corpus() if logical_qubit_count(patch.code) != 1
    ]
    assert extra == []


@pytest.mark.parametrize(
    ("d", "size", "seed"),
    [(5, 3, 0), (5, 5, 1), (7, 4, 2), (7, 8, 1)],
)
def test_every_scored_candidate_matches_oracle(monkeypatch, d, size, seed):
    """Algorithms 1 and 2 see the same distances (and errors) as the oracle."""
    seen = []

    def checked(code, basis):
        expected = outcome(networkx_graph_distance, code, basis)
        got = outcome(graph_distance, code, basis)
        assert got == expected
        seen.append(got)
        return graph_distance(code, basis)

    monkeypatch.setattr(removal_module, "graph_distance", checked)
    monkeypatch.setattr(enlargement_module, "graph_distance", checked)
    template = rotated_surface_code(d)
    defects = CosmicRayModel(seed=seed).sample_defective_qubits(
        template.all_qubit_coords(), size
    )
    for deform in (
        lambda p: defect_removal(p, defects),
        lambda p: CodeDeformationUnit().deform(p, defects),
    ):
        try:
            deform(rotated_surface_code(d))
        except (ValueError, RuntimeError):
            pass
    assert len(seen) >= 8


def _both_raise(code, basis, match):
    with pytest.raises(ValueError, match=match) as new:
        graph_distance(code, basis)
    with pytest.raises(ValueError, match=match) as old:
        networkx_graph_distance(code, basis)
    assert str(new.value) == str(old.value)


def test_non_graphlike_code_raises_same_message():
    code = rotated_surface_code(3).code
    # A third X generator on a qubit that already has two.
    q = (3, 3)
    assert sum(
        1 for g in code.stabilizers.values() if g.basis == "X" and q in g.pauli.support
    ) == 2
    code.stabilizers["extra"] = StabilizerGenerator(
        PauliOp.x_on([q, (1, 1)]), "X", "extra", ()
    )
    _both_raise(code, "Z", "non-graphlike")


def test_logical_through_undetected_qubit_raises_same_message():
    code = rotated_surface_code(3).code
    q = sorted(code.logical_x.x_support)[0]
    for name, gen in list(code.stabilizers.items()):
        if gen.basis == "X" and q in gen.pauli.support:
            del code.stabilizers[name]
    _both_raise(code, "Z", "undetected qubit")


def test_code_without_crossing_edges_raises_same_message():
    code = rotated_surface_code(3).code
    code.logical_z = PauliOp.identity()
    _both_raise(code, "X", "no X logical cycle found")
