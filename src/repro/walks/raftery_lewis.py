"""Raftery–Lewis convergence diagnostic.

The third monitor the paper names (§8 via [11]).  Unlike Geweke (a
converged-yet? test) it is *prescriptive*: given a target quantile ``q`` to
be estimated within ``±r`` with probability ``s``, it fits a two-state
Markov chain to the binary indicator series ``Z_t = 1{X_t ≤ x_q}`` and
returns how much thinning, burn-in, and total sampling the chain needs.

The classic recipe (Raftery & Lewis 1992):

1. find the smallest thinning ``k`` at which the thinned indicator series
   looks first-order Markov rather than second-order (here: the lag-2
   dependence beyond lag-1, measured on transition counts, drops below a
   tolerance);
2. estimate the thinned chain's transition probabilities α = P(0→1),
   β = P(1→0);
3. burn-in  ``M = k · ⌈log(ε·(α+β)/max(α,β)) / log(1-α-β)⌉`` — steps until
   the indicator chain forgets its start to within ε;
4. further draws ``N = k · ⌈ αβ(2-α-β)/(α+β)³ · (z_{(1+s)/2}/r)² ⌉``.

The ratio of ``M + N`` to the i.i.d. requirement ``N_min`` is the usual
dependence-factor diagnostic (values ≫ 1 flag slow mixing).
"""

from __future__ import annotations

from dataclasses import dataclass
from statistics import NormalDist
from typing import Sequence

import numpy as np

from repro.errors import ConfigurationError, ConvergenceError


@dataclass(frozen=True)
class RafteryLewisResult:
    """Prescription returned by the diagnostic."""

    thinning: int
    burn_in: int
    further_samples: int
    minimum_iid_samples: int

    @property
    def total(self) -> int:
        """Total chain length required: burn-in plus kept draws."""
        return self.burn_in + self.further_samples

    @property
    def dependence_factor(self) -> float:
        """(M + N) / N_min — how much the correlation inflates the cost."""
        if self.minimum_iid_samples == 0:
            return float("inf")
        return self.total / self.minimum_iid_samples


def _transition_counts(indicator: np.ndarray, k: int) -> np.ndarray:
    thinned = indicator[::k]
    counts = np.zeros((2, 2))
    for a, b in zip(thinned[:-1], thinned[1:]):
        counts[a, b] += 1
    return counts


def _second_order_excess(indicator: np.ndarray, k: int) -> float:
    """How much the thinned series deviates from first-order Markov.

    Compares P(Z_t=1 | Z_{t-1}, Z_{t-2}) across the two values of
    Z_{t-2}; a first-order chain shows no difference.
    """
    thinned = indicator[::k]
    if len(thinned) < 8:
        return 0.0
    counts = np.zeros((2, 2, 2))
    for a, b, c in zip(thinned[:-2], thinned[1:-1], thinned[2:]):
        counts[a, b, c] += 1
    worst = 0.0
    for b in (0, 1):
        rows = counts[:, b, :]
        totals = rows.sum(axis=1)
        if np.all(totals > 0):
            p_given_0 = rows[0, 1] / totals[0]
            p_given_1 = rows[1, 1] / totals[1]
            worst = max(worst, abs(p_given_0 - p_given_1))
    return worst


def raftery_lewis(
    series: Sequence[float],
    quantile: float = 0.5,
    precision: float = 0.05,
    probability: float = 0.95,
    epsilon: float = 0.001,
    max_thinning: int = 32,
) -> RafteryLewisResult:
    """Run the Raftery–Lewis diagnostic on a pilot *series*.

    Parameters
    ----------
    series:
        Pilot chain of the monitored scalar (e.g. degrees along a walk).
    quantile / precision / probability:
        Estimate the *quantile*-th quantile to within ±*precision*
        (probability units) with coverage *probability*.
    epsilon:
        Burn-in tolerance on the indicator chain's start bias.
    max_thinning:
        Upper bound on the thinning search.

    Raises
    ------
    ConvergenceError
        If the pilot is too short or the indicator is degenerate (the
        chain never/always falls below the quantile — no information).
    """
    if not 0.0 < quantile < 1.0:
        raise ConfigurationError(f"quantile must be in (0, 1), got {quantile}")
    if not 0.0 < precision < 0.5:
        raise ConfigurationError(f"precision must be in (0, 0.5), got {precision}")
    if not 0.0 < probability < 1.0:
        raise ConfigurationError(
            f"probability must be in (0, 1), got {probability}"
        )
    values = np.asarray(series, dtype=float)
    if len(values) < 50:
        raise ConvergenceError(
            f"pilot series too short for Raftery-Lewis: {len(values)} < 50"
        )
    threshold = float(np.quantile(values, quantile))
    indicator = (values <= threshold).astype(int)
    if indicator.min() == indicator.max():
        raise ConvergenceError("degenerate indicator series (constant)")

    z_score = NormalDist().inv_cdf(0.5 * (1.0 + probability))
    minimum_iid = int(np.ceil(quantile * (1 - quantile) * (z_score / precision) ** 2))

    thinning = 1
    while thinning < max_thinning and _second_order_excess(indicator, thinning) > 0.1:
        thinning += 1

    counts = _transition_counts(indicator, thinning)
    row0, row1 = counts[0].sum(), counts[1].sum()
    if row0 == 0 or row1 == 0:
        raise ConvergenceError("thinned chain never leaves one state")
    alpha = counts[0, 1] / row0  # P(0 -> 1)
    beta = counts[1, 0] / row1  # P(1 -> 0)
    alpha = min(max(alpha, 1e-9), 1 - 1e-9)
    beta = min(max(beta, 1e-9), 1 - 1e-9)
    rate = alpha + beta
    lam = abs(1.0 - rate)  # second eigenvalue of the 2-state chain
    if lam >= 1.0 - 1e-12:
        raise ConvergenceError("indicator chain does not mix")
    burn_in_steps = int(
        np.ceil(np.log(epsilon * rate / max(alpha, beta)) / np.log(lam))
    )
    burn_in = thinning * max(0, burn_in_steps)
    further = thinning * int(
        np.ceil(alpha * beta * (2.0 - rate) / rate**3 * (z_score / precision) ** 2)
    )
    return RafteryLewisResult(
        thinning=thinning,
        burn_in=burn_in,
        further_samples=further,
        minimum_iid_samples=minimum_iid,
    )
