"""Measured-versus-model rows of the experiments report."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Comparison:
    """One model-vs-measurement row of an experiment report."""

    label: str
    predicted: float
    measured: float

    @property
    def ratio(self) -> float:
        if self.predicted == 0:
            return float("inf") if self.measured else 1.0
        return self.measured / self.predicted

    @property
    def relative_error(self) -> float:
        if self.predicted == 0:
            return abs(self.measured)
        return abs(self.measured - self.predicted) / abs(self.predicted)

    def within(self, tolerance: float) -> bool:
        """True if the measurement is within *tolerance* relative error."""
        return self.relative_error <= tolerance


__all__ = ["Comparison"]
