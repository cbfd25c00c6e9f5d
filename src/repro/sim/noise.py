"""Circuit-level noise models (section VII-A).

The paper's physical error model associates probability ``p = 1e-3`` with
single-qubit depolarizing after one-qubit gates, two-qubit depolarizing
after two-qubit gates, and X flips on measurement and reset.  Dynamic
defects raise the local error rate of affected qubits to ``p_defect ≈
0.5`` for the duration of the event; fig. 14(a)'s robustness study
varies the two-qubit (correlated) error rate independently.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["NoiseModel"]


@dataclass(frozen=True)
class NoiseModel:
    """Parameters of the circuit-level error model.

    Attributes:
        p1: depolarizing probability after single-qubit gates.
        p2: depolarizing probability after two-qubit gates (the
            "correlated" error rate of fig. 14a).
        p_meas: X-flip probability on measurement.
        p_reset: X-flip probability after reset.
        p_data_round: per-round depolarizing on idle data qubits.
        p_defect: per-round depolarizing probability applied to qubits
            inside an untreated defect region (≈ 0.5 in the paper).
        defect_meas_flip: outcome-flip probability of a defective
            ancilla's measurement.
    """

    p1: float = 1e-3
    p2: float = 1e-3
    p_meas: float = 1e-3
    p_reset: float = 1e-3
    p_data_round: float = 1e-3
    p_defect: float = 0.5
    defect_meas_flip: float = 0.5

    def __post_init__(self) -> None:
        for f in fields(self):
            p = getattr(self, f.name)
            if not 0.0 <= p <= 1.0:  # also rejects NaN
                raise ValueError(f"NoiseModel.{f.name} must lie in [0, 1], got {p!r}")

    @classmethod
    def uniform(cls, p: float) -> "NoiseModel":
        """The paper's standard model with every channel at ``p``."""
        return cls(p1=p, p2=p, p_meas=p, p_reset=p, p_data_round=p)

    def with_correlated(self, p2: float) -> "NoiseModel":
        """fig. 14(a): scale only the two-qubit correlated error rate."""
        return NoiseModel(
            p1=self.p1,
            p2=p2,
            p_meas=self.p_meas,
            p_reset=self.p_reset,
            p_data_round=self.p_data_round,
            p_defect=self.p_defect,
            defect_meas_flip=self.defect_meas_flip,
        )
