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
from functools import partial
from itertools import combinations, permutations

import numpy as np

from .errors import (
    ConfigurationError,
    InvalidLinearizationError,
    ResolutionFailureError,
    UnresolvableDegeneracyError,
)
from .hamiltonians import DiagonalHamiltonian, build_final
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
    halving from radius/2 downward.  Every candidate must be accepted by
    Linearization, the one admissibility rule for weights, and is then
    scored by degeneracy_check, the one tie rule, at tie_tol.  The first
    candidate whose minimum is unique, lies inside the original tied set
    and is within radius of w wins, which makes the outcome deterministic.

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
    certificate = partial(
        ResolutionCertificate,
        original_weights=w.as_tuple(),
        radius=radius,
        tied_indices=tied,
        m_value=float(inst.values.max()),
    )
    if report.multiplicity == 1:
        return certificate(
            resolved_weights=w.as_tuple(), l1_distance=0.0, chosen_index=tied[0]
        )

    for a, b in combinations(tied, 2):
        if equivalent(inst, a, b):
            raise UnresolvableDegeneracyError(
                f"indices {a} and {b} have identical objective "
                "rows; every weighting scores them equally"
            )

    halvings = [radius / 2.0]
    while len(halvings) < MAX_HALVINGS:
        halvings.append(halvings[-1] / 2.0)
    tried: list[tuple[int, int, float]] = []
    for i, j in permutations(range(inst.d), 2):
        for eps in halvings:
            candidate = w.weights.copy()
            candidate[i] += eps
            candidate[j] -= eps
            try:
                lin = Linearization(candidate)
            except InvalidLinearizationError:
                continue
            tried.append((i, j, eps))
            scal = scalarize(inst, lin)
            found = degeneracy_check(DiagonalHamiltonian(scal), tie_tol).witnesses
            distance = float(np.abs(lin.weights - w.weights).sum())
            if len(found) == 1 and found[0] in tied and distance <= radius:
                return certificate(
                    resolved_weights=lin.as_tuple(),
                    l1_distance=distance,
                    chosen_index=found[0],
                )
    raise ResolutionFailureError(
        f"no candidate split the tie {tied} within radius {radius!r}",
        tried=tuple(tried),
    )
