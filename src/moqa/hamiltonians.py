"""Problem and driver Hamiltonians for the annealing interpolation.

The final (problem) Hamiltonian is diagonal in the computational basis and
carries the weighted-sum values of an instance.  The initial (driver)
Hamiltonian is diagonal in the Hadamard-transformed basis, assigning zero
to the uniform superposition and a positive penalty to every orthogonal
state; with the default penalties it is scale * (I - P) for P the
projector onto the uniform superposition.  The interpolation at schedule
point s is H(s) = (1 - s) * H_initial + s * H_final.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigurationError,
    DimensionMismatchError,
    HermiticityError,
    InvalidInitialValuesError,
    check_count,
    is_finite_real,
)
from .mco import Linearization, McoInstance, scalarize

#: Driver-Hamiltonian prefactor used by the bundled experiments.
DEFAULT_INITIAL_SCALE = 8.0
HERMITICITY_TOL = 1e-12
#: Commutator norm at or below which the driver and problem commute.
COMMUTATOR_TOL = 1e-9


@dataclass(frozen=True, eq=False)
class DiagonalHamiltonian:
    """Computational-basis-diagonal operator with nonnegative entries."""

    diagonal: np.ndarray

    def __post_init__(self):
        diag = np.asarray(self.diagonal, dtype=np.float64)
        if diag.ndim != 1 or diag.size < 2:
            raise DimensionMismatchError("diagonal must be a vector of length >= 2")
        if not np.all(np.isfinite(diag)) or np.any(diag < 0):
            raise ConfigurationError("diagonal entries must be finite and nonnegative")
        diag.setflags(write=False)
        object.__setattr__(self, "diagonal", diag)

    @property
    def dim(self) -> int:
        return int(self.diagonal.size)


def build_final(inst: McoInstance, w: Linearization) -> DiagonalHamiltonian:
    """Diagonal Hamiltonian whose entry at x is the weighted sum <f(x), w>."""
    return DiagonalHamiltonian(scalarize(inst, w))


@dataclass(frozen=True, eq=False)
class InitialHamiltonian:
    """Driver Hamiltonian, diagonal in the Hadamard basis.

    Attributes:
        h_values: Penalties per Hadamard-basis state.  The first entry
            (uniform superposition) must be exactly 0 and every other entry
            at least 1, so the uniform superposition is the unique ground
            state with eigenvalue 0.
        scale: Positive prefactor multiplying the whole operator: a
            finite real number, not a bool.
    """

    h_values: np.ndarray
    scale: float = DEFAULT_INITIAL_SCALE

    def __post_init__(self):
        h = np.asarray(self.h_values, dtype=np.float64)
        if h.ndim != 1 or h.size < 2 or (h.size & (h.size - 1)):
            raise DimensionMismatchError(
                "penalty vector length must be a power of two >= 2"
            )
        if h[0] != 0.0:
            raise InvalidInitialValuesError("penalty of the uniform state must be 0")
        if not np.all(np.isfinite(h)) or np.any(h[1:] < 1.0):
            raise InvalidInitialValuesError(
                "penalties of excited states must be finite and >= 1"
            )
        if not (is_finite_real(self.scale) and self.scale > 0):
            raise InvalidInitialValuesError("scale must be positive and finite")
        h.setflags(write=False)
        object.__setattr__(self, "h_values", h)
        object.__setattr__(self, "scale", float(self.scale))

    @property
    def dim(self) -> int:
        return int(self.h_values.size)

    @property
    def is_default(self) -> bool:
        """True when every excited penalty is exactly 1."""
        return bool(np.all(self.h_values[1:] == 1.0))

    def dense(self) -> np.ndarray:
        """Real symmetric matrix of the operator in the computational basis.

        The penalty diagonal conjugated with the Hadamard transform.  The
        package builds it only for non-default penalties: with the
        default ones every caller takes its rank-one path first.
        """
        mat = hadamard_transform(hadamard_transform(np.diag(self.h_values)).T)
        mat *= self.scale
        return 0.5 * (mat + mat.T)


def build_initial(
    n: int, scale: float = DEFAULT_INITIAL_SCALE, h_values=None
) -> InitialHamiltonian:
    """Driver Hamiltonian on n bits; default penalties are all 1."""
    n = check_count("n", n, 1)
    if h_values is None:
        h = np.ones(1 << n)
        h[0] = 0.0
    else:
        h = np.asarray(h_values, dtype=np.float64)
        if h.size != 1 << n:
            raise DimensionMismatchError(
                f"penalty vector has {h.size} entries, expected {1 << n}"
            )
    return InitialHamiltonian(h, scale)


def hadamard_transform(vec) -> np.ndarray:
    """Orthonormal fast Walsh-Hadamard transform along axis 0.

    Each butterfly stage carries a 1/sqrt(2) factor, so the transform is
    its own inverse and preserves the Euclidean norm.  Runs in
    O(N log N) per column on a copy of the input; axis 0 must have
    power-of-two length.  A matrix argument is transformed column by
    column, so hadamard_transform(M) is H @ M.
    """
    # A C-ordered copy, so that the reshapes below are views into it.
    out = np.array(
        vec, dtype=np.complex128 if np.iscomplexobj(vec) else np.float64, order="C"
    )
    size = out.shape[0] if out.ndim else 0
    if size < 1 or (size & (size - 1)):
        raise DimensionMismatchError("length must be a power of two")
    half = 1
    inv_sqrt2 = 1.0 / np.sqrt(2.0)
    while half < size:
        blocks = out.reshape(-1, 2, half, *out.shape[1:])
        a = blocks[:, 0].copy()
        b = blocks[:, 1].copy()
        blocks[:, 0] = (a + b) * inv_sqrt2
        blocks[:, 1] = (a - b) * inv_sqrt2
        half *= 2
    return out


@dataclass(frozen=True, eq=False)
class HermitianOperator:
    """Dense operator checked for conjugate symmetry on construction."""

    entries: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.entries, dtype=np.complex128)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1] or mat.shape[0] < 2:
            raise DimensionMismatchError("operator must be square with dim >= 2")
        scale = float(np.max(np.abs(mat)))
        dev = float(np.max(np.abs(mat - mat.conj().T)))
        if dev > HERMITICITY_TOL * scale:
            raise HermiticityError(
                f"matrix deviates from conjugate symmetry by {dev!r}"
            )
        mat.setflags(write=False)
        object.__setattr__(self, "entries", mat)

    @property
    def dim(self) -> int:
        return int(self.entries.shape[0])


def check_pair(h0: InitialHamiltonian, hw: DiagonalHamiltonian) -> None:
    """Refuse a driver and a problem Hamiltonian of different dimensions."""
    if h0.dim != hw.dim:
        raise DimensionMismatchError(f"driver dim {h0.dim} != problem dim {hw.dim}")


def interpolation_dense(
    h0: InitialHamiltonian, hw: DiagonalHamiltonian, s: float
) -> np.ndarray:
    """Real symmetric matrix (1 - s) * H_initial + s * H_final."""
    check_pair(h0, hw)
    if not (0.0 <= s <= 1.0):
        raise ConfigurationError(f"schedule point s={s} outside [0, 1]")
    mat = (1.0 - s) * h0.dense()
    mat[np.diag_indices(hw.dim)] += s * hw.diagonal
    return mat


@dataclass(frozen=True)
class CommutatorCheck:
    """Spectral norm of [H_initial, H_final] against COMMUTATOR_TOL."""

    norm: float
    commuting: bool


def commutes(h0: InitialHamiltonian, hw: DiagonalHamiltonian) -> CommutatorCheck:
    """Measure whether the driver and problem Hamiltonians commute.

    With the default driver the commutator is scale * (D|u><u| - |u><u|D),
    whose spectral norm is scale * std(D), the population standard
    deviation; other drivers take the dense 2-norm, O(N^3).

    Returns:
        CommutatorCheck with the spectral norm of the commutator;
        commuting is True when the norm does not exceed COMMUTATOR_TOL.
        A commuting pair makes the interpolation eigenbasis constant,
        which defeats the annealing mechanism.
    """
    check_pair(h0, hw)
    if h0.is_default:
        # Shifting by one entry leaves std unchanged and makes it exactly 0
        # on a constant diagonal.  Dividing by the power of two at the
        # largest deviation is exact and keeps the squares in range.
        dev = hw.diagonal - hw.diagonal[0]
        unit = 2.0 ** int(np.frexp(np.abs(dev).max())[1])
        norm = h0.scale * (unit * float(np.std(dev / unit)))
    else:
        a = h0.dense()
        comm = a * hw.diagonal[None, :] - hw.diagonal[:, None] * a
        norm = float(np.linalg.norm(comm, 2))
    return CommutatorCheck(norm=norm, commuting=norm <= COMMUTATOR_TOL)
