"""Correctness gates: every timed output is checked against a pin.

Each gate returns ``None`` on success or a one-line failure message; a
failed gate counts the operation as failed in the run's result.  Pins
live in ``pins.json`` and are regenerated only by ``pin.py``.
"""

from __future__ import annotations

from scipy.stats import beta, binom

from repro.codes.validity import ValidityError, check_code

#: Per-side false-alarm probability of a logical-error-count gate.  A
#: run checks a few hundred counts, so at this level a correct program
#: fails a gate about once in thousands of runs.
ALPHA = 1e-6


def count_bounds(
    ref_errors: int, ref_shots: int, shots: int, alpha: float = ALPHA
) -> tuple[int, int]:
    """Inclusive ``[lo, hi]`` logical-error counts for ``shots`` shots.

    The reference rate ``ref_errors / ref_shots`` is itself a sample, so
    its Clopper-Pearson interval at ``alpha`` is widened by the
    binomial quantiles of ``shots`` draws at each end.
    """
    if not 0 <= ref_errors <= ref_shots or ref_shots < 1 or shots < 1:
        raise ValueError("reference counts must satisfy 0 <= errors <= shots")
    p_lo = beta.ppf(alpha, ref_errors, ref_shots - ref_errors + 1) if ref_errors else 0.0
    p_hi = (
        beta.isf(alpha, ref_errors + 1, ref_shots - ref_errors)
        if ref_errors < ref_shots
        else 1.0
    )
    lo = int(binom.ppf(alpha, shots, p_lo)) if p_lo > 0 else 0
    hi = int(binom.isf(alpha, shots, p_hi))
    return lo, hi


def count_gate(label: str, errors: int, shots: int, ref: dict) -> str | None:
    """``errors`` of ``shots`` must match the pinned ``ref`` rate."""
    lo, hi = count_bounds(ref["errors"], ref["shots"], shots)
    if lo <= errors <= hi:
        return None
    return (
        f"{label}: {errors} logical errors in {shots} shots, outside "
        f"[{lo}, {hi}] around the pinned {ref['errors']}/{ref['shots']}"
    )


def event_gate(label: str, report, code, pin: dict) -> str | None:
    """A deformed code must be valid and match Algorithm 1's pinned
    instruction list and final ``(dX, dZ)``."""
    try:
        check_code(code)
    except ValidityError as exc:
        return f"{label}: deformed code fails check_code: {exc}"
    if report.instructions != pin["instructions"]:
        return (
            f"{label}: instructions {report.instructions} differ from the "
            f"pinned {pin['instructions']}"
        )
    if list(report.final_distance) != pin["final_distance"]:
        return (
            f"{label}: final distance {report.final_distance} differs from "
            f"the pinned {tuple(pin['final_distance'])}"
        )
    return None
