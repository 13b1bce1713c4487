"""The legacy POP port-verification procedure (paper section 6).

Before the ensemble method, the accepted way to validate POP on a new
machine was: run a specific case for five simulation days, compute the
RMSE of the sea-surface-height field against a released reference
solution, and compare to a threshold.  The paper shows this check is
*insufficient* for judging solver changes -- solver-induced differences
hide below chaotic variability long before five days, and the single
threshold carries no information about the system's natural spread.

Implemented here both for completeness of the reproduced workflow and
because experiment E13/E14 contrast it with the ensemble method.
"""

from dataclasses import dataclass

from repro.core.errors import ConfigurationError
from repro.verification.metrics import rmse


@dataclass
class PortCheckReport:
    """Outcome of the five-day RMSE port check."""

    rmse: float
    threshold: float
    passed: bool
    days: int
    field: str = "SSH"

    def describe(self):
        status = "PASS" if self.passed else "FAIL"
        return (
            f"port check ({self.field}, {self.days} days): "
            f"RMSE {self.rmse:.3e} vs threshold {self.threshold:.3e} "
            f"-> {status}"
        )


def generate_reference(model, days=5):
    """Produce the 'released dataset': the reference run's final SSH."""
    model.run_days(days)
    return model.state.eta.copy()


def port_check(model, reference_ssh, mask, threshold=1.0e-10, days=5):
    """Run the candidate for ``days`` and compare SSH RMSE to a threshold.

    Parameters mirror the POP procedure: ``model`` is a fresh candidate
    model (new machine / compiler / solver), ``reference_ssh`` the
    released solution, ``threshold`` the acceptance bound.

    Returns a :class:`PortCheckReport`.
    """
    if days < 1:
        raise ConfigurationError(f"days must be >= 1, got {days}")
    model.run_days(days)
    value = rmse(model.state.eta, reference_ssh, mask)
    return PortCheckReport(rmse=value, threshold=float(threshold),
                           passed=value <= threshold, days=days)
