"""Tie-breaking of degenerate weighted-sum minima by reweighting.

When several domain indices share the minimal weighted sum, a small
two-coordinate perturbation of the weights can single one of them out
without letting any outside solution take over.  The safe perturbation
budget in l1 distance is the weighted separation divided by (largest
table entry * objective count); candidates move weight from one
coordinate to another in halving steps inside that budget and are
accepted only after an exhaustive check that the new minimum is unique
and belongs to the original tied set.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidLinearizationError,
    ResolutionFailureError,
    UnresolvableDegeneracyError,
)
from .hamiltonians import build_final
from .mco import Linearization, McoInstance, equivalent, scalarize
from .spectral import DEGENERACY_TOL, degeneracy_check

MAX_HALVINGS = 60


def l1_radius(inst: McoInstance, w: Linearization) -> float:
    """Largest safe l1 move of the weights for this instance.

    Computed as <inst.lam, w> / (m * d) where m is the largest objective
    value in the table.  Any reweighting within this distance changes each
    weighted sum by less than the weighted separation divided by d.  Use
    inst.with_lambda(v) to size the radius from another separation vector.

    Raises:
        ConfigurationError: When the instance has no separation vector.
    """
    if inst.lam is None:
        raise ConfigurationError("the safe radius needs a separation vector")
    m = float(inst.values.max())
    if m <= 0.0:
        raise ConfigurationError("table maximum must be positive")
    return float(inst.lam @ w.weights) / (m * inst.d)


@dataclass(frozen=True)
class ResolutionCertificate:
    """Verified outcome of a tie-breaking search.

    Attributes:
        original_weights: The weighting that was (possibly) degenerate.
        resolved_weights: A weighting whose minimum is unique; equals the
            original when it was already nondegenerate.
        l1_distance: ||original - resolved||_1, at most radius.
        radius: Safe perturbation budget from l1_radius.
        chosen_index: The unique minimizer under resolved_weights; always
            one of tied_indices.
        tied_indices: Minimizers under the original weighting.
        m_value: Largest objective value in the table.
    """

    original_weights: tuple[float, ...]
    resolved_weights: tuple[float, ...]
    l1_distance: float
    radius: float
    chosen_index: int
    tied_indices: tuple[int, ...]
    m_value: float


def resolve(
    inst: McoInstance,
    w: Linearization,
    tie_tol: float = DEGENERACY_TOL,
) -> ResolutionCertificate:
    """Break a degenerate weighted-sum minimum, or certify there is none.

    The instance is expected to have passed validation (unique, distinct
    single-objective optima and separations above inst.lam); that
    separation vector sizes the search budget through l1_radius.

    The search enumerates ordered coordinate pairs (i, j) in lexicographic
    order and, for each, perturbations w + eps * (e_i - e_j) with eps
    halving from radius/2 downward.  The first candidate whose weighted-sum
    minimum is unique and attained inside the original tied set wins, which
    makes the outcome deterministic.

    Returns:
        ResolutionCertificate; for a nondegenerate input the certificate
        has resolved == original and zero distance.

    Raises:
        UnresolvableDegeneracyError: Two tied indices have exactly equal
            objective rows, so no reweighting can separate them.
        ResolutionFailureError: The candidate search was exhausted.
        ConfigurationError: The instance has no separation vector.
    """
    radius = l1_radius(inst, w)
    report = degeneracy_check(build_final(inst, w), tie_tol)
    tied = report.witnesses
    if report.multiplicity == 1:
        return ResolutionCertificate(
            original_weights=w.as_tuple(),
            resolved_weights=w.as_tuple(),
            l1_distance=0.0,
            radius=radius,
            chosen_index=tied[0],
            tied_indices=tied,
            m_value=float(inst.values.max()),
        )

    for a in range(len(tied)):
        for b in range(a + 1, len(tied)):
            if equivalent(inst, tied[a], tied[b]):
                raise UnresolvableDegeneracyError(
                    f"indices {tied[a]} and {tied[b]} have identical objective "
                    "rows; every weighting scores them equally"
                )

    tied_set = set(tied)
    tried: list[tuple[int, int, float]] = []
    for i in range(inst.d):
        for j in range(inst.d):
            if i == j:
                continue
            eps = radius / 2.0
            for _ in range(MAX_HALVINGS):
                candidate = _shift(w.weights, i, j, eps)
                if candidate is not None:
                    tried.append((i, j, eps))
                    cert = _check_candidate(
                        inst, w, candidate, eps, radius, tied, tied_set, tie_tol
                    )
                    if cert is not None:
                        return cert
                eps /= 2.0
    raise ResolutionFailureError(
        f"no candidate split the tie {tied} within radius {radius!r}",
        tried=tuple(tried),
    )


def _shift(weights: np.ndarray, i: int, j: int, eps: float) -> np.ndarray | None:
    cand = weights.copy()
    cand[i] += eps
    cand[j] -= eps
    if cand[j] < 0.0 or cand[i] >= 1.0:
        return None
    return cand


def _check_candidate(
    inst, w, candidate, eps, radius, tied, tied_set, tie_tol
) -> ResolutionCertificate | None:
    try:
        lin = Linearization(candidate)
    except InvalidLinearizationError:
        return None
    scal = scalarize(inst, lin)
    min_val = float(scal.min())
    winners = np.nonzero(scal <= min_val + tie_tol)[0]
    if winners.size != 1:
        return None
    chosen = int(winners[0])
    if chosen not in tied_set:
        return None
    distance = float(np.abs(candidate - w.weights).sum())
    if distance > radius:
        return None
    return ResolutionCertificate(
        original_weights=w.as_tuple(),
        resolved_weights=lin.as_tuple(),
        l1_distance=distance,
        radius=radius,
        chosen_index=chosen,
        tied_indices=tied,
        m_value=float(inst.values.max()),
    )
