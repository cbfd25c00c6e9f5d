"""Overlap-indexed commutation checks pinned to all-pairs scans.

``_purge_anticommuting_checks`` and the stabilizer-pair loop of
``check_generator_representation`` only compare operators that share a
qubit.  Operators on disjoint supports always commute, so the purged
checks and the first anticommuting pair reported must equal what a scan
over every pair finds — on the seeded corpus, on every code the
deformation instructions purge on the way, and on codes with injected
anticommuting stabilizers and checks.
"""

from __future__ import annotations

import numpy as np
import pytest

import repro.codes.validity as validity_module
import repro.deform.instructions as instructions_module
from deform_oracles import (
    all_pairs_generator_violation,
    all_pairs_purge,
    deformed_corpus,
)
from repro.codes import (
    Check,
    StabilizerGenerator,
    SubsystemCode,
    ValidityError,
    check_generator_representation,
)
from repro.defects import CosmicRayModel
from repro.deform import CodeDeformationUnit, defect_removal
from repro.deform.instructions import _purge_anticommuting_checks
from repro.pauli import PauliOp
from repro.surface import rotated_surface_code

_OPPOSITE = {"X": "Z", "Z": "X"}


def purge_outcome(purge, code: SubsystemCode) -> tuple[list[str], str | None]:
    """Checks left after ``purge`` on a copy of ``code``, and its error."""
    trial = code.copy()
    try:
        purge(trial)
    except RuntimeError as exc:
        return list(trial.checks), str(exc)
    return list(trial.checks), None


def violation(code: SubsystemCode) -> str | None:
    """The stabilizer-pair message ``check_generator_representation`` raises."""
    try:
        check_generator_representation(code)
    except ValidityError as exc:
        message = str(exc)
        return message if message.startswith("stabilizers ") else None
    return None


def _single(basis: str, q) -> PauliOp:
    return PauliOp.x_on([q]) if basis == "X" else PauliOp.z_on([q])


def inject_generators(code: SubsystemCode, rng: np.random.Generator, count: int):
    """Insert ``count`` single-qubit generators at random dict positions.

    Each one is opposite in basis to the generators on its qubit, so it
    anticommutes with them; several injections make the first violating
    ``(i, j)`` pair depend on the scan order.
    """
    qubits = sorted(code.data_qubits)
    stabs = list(code.stabilizers.values())
    for n in range(count):
        q = qubits[int(rng.integers(len(qubits)))]
        basis = ("X", "Z")[int(rng.integers(2))]
        gen = StabilizerGenerator(_single(basis, q), basis, f"inj{n}", ())
        stabs.insert(int(rng.integers(len(stabs) + 1)), gen)
    code.stabilizers = {g.name: g for g in stabs}


def inject_check(code: SubsystemCode, rng: np.random.Generator, *, referenced: bool):
    """Add a single-qubit check that anticommutes with a stabilizer.

    A ``referenced`` check is also listed in the last generator's
    ``measured_via``, which the purge must refuse with ``RuntimeError``.
    """
    gens = list(code.stabilizers.values())
    gen = gens[int(rng.integers(len(gens)))]
    support = sorted(gen.pauli.support)
    q = support[int(rng.integers(len(support)))]
    basis = _OPPOSITE[gen.basis]
    name = code.fresh_name("inj")
    code.checks[name] = Check(_single(basis, q), basis, name)
    if referenced:
        gens[-1].measured_via = (*gens[-1].measured_via, name)
    return name


def test_corpus_codes_need_no_purge_and_pass():
    for name, patch in deformed_corpus():
        code = patch.code
        assert purge_outcome(_purge_anticommuting_checks, code) == (
            list(code.checks),
            None,
        ), name
        assert purge_outcome(all_pairs_purge, code) == (list(code.checks), None)
        assert violation(code) is None, name
        assert all_pairs_generator_violation(code) is None, name


@pytest.mark.parametrize("seed", range(4))
def test_injected_checks_are_purged_exactly(seed):
    rng = np.random.default_rng(seed)
    for name, patch in deformed_corpus()[seed::4]:
        code = patch.code.copy()
        injected = {inject_check(code, rng, referenced=False) for _ in range(3)}
        kept, error = purge_outcome(_purge_anticommuting_checks, code)
        assert (kept, error) == purge_outcome(all_pairs_purge, code), name
        assert error is None
        assert not injected & set(kept), name


@pytest.mark.parametrize("seed", range(2))
def test_referenced_anticommuting_check_raises_same_error(seed):
    rng = np.random.default_rng(100 + seed)
    for name, patch in deformed_corpus()[seed::4]:
        code = patch.code.copy()
        inject_check(code, rng, referenced=False)
        bad = inject_check(code, rng, referenced=True)
        kept, error = purge_outcome(_purge_anticommuting_checks, code)
        assert (kept, error) == purge_outcome(all_pairs_purge, code), name
        assert error is not None and bad in error, name


@pytest.mark.parametrize("seed", range(4))
def test_injected_generators_report_the_first_pair(seed):
    rng = np.random.default_rng(200 + seed)
    reported = 0
    for name, patch in deformed_corpus()[seed::4]:
        code = patch.code.copy()
        inject_generators(code, rng, count=1 + seed)
        expected = all_pairs_generator_violation(code)
        assert violation(code) == expected, name
        reported += expected is not None
    assert reported > 0


@pytest.mark.parametrize(("d", "size", "seed"), [(5, 4, 3), (7, 6, 4), (9, 3, 5)])
def test_every_purge_during_deformation_matches_oracle(monkeypatch, d, size, seed):
    """Each purge and each Theorem-1 scan the deformation runs agrees."""
    purges, scans = [], []
    real_purge = instructions_module._purge_anticommuting_checks
    real_check = validity_module.check_generator_representation

    def checked_purge(code):
        expected = purge_outcome(all_pairs_purge, code)
        assert purge_outcome(real_purge, code) == expected
        kept, error = expected
        purges.append(error is not None or len(kept) < len(code.checks))
        real_purge(code)

    def checked_scan(code):
        expected = all_pairs_generator_violation(code)
        assert violation(code) == expected
        scans.append(expected)
        real_check(code)

    monkeypatch.setattr(instructions_module, "_purge_anticommuting_checks", checked_purge)
    monkeypatch.setattr(validity_module, "check_generator_representation", checked_scan)
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
    # Boundary instructions sacrifice checks or refuse: the purge acts.
    assert any(purges)
    assert scans
