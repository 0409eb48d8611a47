"""Two discretized parabolas: the bundled biobjective benchmark family.

Instances place one objective's minimum at index x0 and the other's at
x0p > x0 + 1, with both objectives decreasing left of x0, both increasing
right of x0p, and a trade-off segment in between.  The bundled 7-bit table
(128 rows, values to three decimals) ships verbatim with a checksum; a
seeded generator produces fresh instances, though its rejection sampling
succeeds for fewer seeds as n grows.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError, GenerationError, check_count
from .mco import McoInstance, validate

# Bundled 7-bit instance: 128 rows of (f1, f2), row k holding the values
# published for label k + 1.  Domain index = label - 1 (label_offset = 1).
BUILTIN_TABLE: tuple[tuple[float, float], ...] = (
    (36.14, 214.879), (34.219, 208.038), (32.375, 201.354), (30.606, 194.825),
    (28.91, 188.449), (27.285, 182.224), (25.729, 176.148), (24.24, 170.219),
    (22.816, 164.435), (21.455, 158.794), (20.155, 153.294), (18.914, 147.933),
    (17.73, 142.709), (16.601, 137.62), (15.525, 132.664), (14.5, 127.839),
    (13.524, 123.143), (12.595, 118.574), (11.711, 114.13), (10.87, 109.809),
    (10.07, 105.609), (9.309, 101.528), (8.585, 97.564), (7.896, 93.715),
    (7.24, 89.979), (6.615, 86.354), (6.019, 82.838), (5.45, 79.429),
    (4.906, 76.125), (4.385, 72.924), (3.885, 69.824), (3.404, 66.823),
    (2.94, 63.919), (2.491, 61.11), (2.055, 58.394), (1.63, 55.769),
    (1.214, 53.233), (0.805, 50.784), (0.401, 48.42), (0.0, 46.139),
    (0.801, 43.939), (1.205, 41.818), (1.614, 39.774), (2.03, 37.805),
    (2.455, 35.909), (2.891, 34.084), (3.34, 32.328), (3.804, 30.639),
    (4.285, 29.015), (4.785, 27.454), (5.306, 25.954), (5.85, 24.513),
    (6.419, 23.129), (7.015, 21.8), (7.64, 20.524), (8.296, 19.299),
    (8.985, 18.123), (9.709, 16.994), (10.47, 15.91), (11.27, 14.869),
    (12.111, 13.869), (12.995, 12.908), (13.924, 11.984), (14.9, 11.095),
    (15.925, 10.239), (17.001, 9.414), (18.13, 8.618), (19.314, 7.849),
    (20.555, 7.105), (21.855, 6.384), (23.216, 5.684), (24.64, 5.003),
    (26.129, 4.339), (27.685, 3.69), (29.31, 3.054), (31.006, 2.429),
    (32.775, 1.813), (34.619, 1.204), (36.54, 0.6), (38.54, 0.0),
    (40.621, 1.2), (42.785, 1.804), (45.034, 2.413), (47.37, 3.029),
    (49.795, 3.654), (52.311, 4.29), (54.92, 4.939), (57.624, 5.603),
    (60.425, 6.284), (63.325, 6.984), (66.326, 7.705), (69.43, 8.449),
    (72.639, 9.218), (75.955, 10.014), (79.38, 10.839), (82.916, 11.695),
    (86.565, 12.584), (90.329, 13.508), (94.21, 14.469), (98.21, 15.469),
    (102.331, 16.51), (106.575, 17.594), (110.944, 18.723), (115.44, 19.899),
    (120.065, 21.124), (124.821, 22.4), (129.71, 23.729), (134.734, 25.113),
    (139.895, 26.554), (145.195, 28.054), (150.636, 29.615), (156.22, 31.239),
    (161.949, 32.928), (167.825, 34.684), (173.85, 36.509), (180.026, 38.405),
    (186.355, 40.374), (192.839, 42.418), (199.48, 44.539), (206.28, 46.739),
    (213.241, 49.02), (220.365, 51.384), (227.654, 53.833), (235.11, 56.369),
    (242.735, 58.994), (250.531, 61.71), (258.5, 64.519), (266.644, 67.423),
)

BUILTIN_LAMBDA = (0.2, 0.4)
#: Domain indices of the two single-objective optima of the bundled table.
BUILTIN_X0 = 39
BUILTIN_X0P = 79
#: SHA-256 of the canonical serialization of BUILTIN_TABLE; checked on load.
BUILTIN_SHA256 = "1dd18fab4cf7c4c38351c00fb476e8251d6233f8af630b33b23843402f6744d6"


def _table_digest(table) -> str:
    text = "\n".join(f"{a!r},{b!r}" for a, b in table)
    return hashlib.sha256(text.encode("ascii")).hexdigest()


def builtin_instance() -> McoInstance:
    """The bundled 7-bit, 2-objective instance with separations (0.2, 0.4).

    Row k of the table is stored at domain index k; its user-facing label
    is k + 1, matching the published numbering (label_offset = 1).

    Raises:
        GenerationError: If the embedded table fails its checksum.
    """
    digest = _table_digest(BUILTIN_TABLE)
    if digest != BUILTIN_SHA256:
        raise GenerationError(
            f"bundled table corrupted: checksum {digest} != {BUILTIN_SHA256}"
        )
    return McoInstance(
        np.asarray(BUILTIN_TABLE, dtype=np.float64),
        lam=np.asarray(BUILTIN_LAMBDA),
        label_offset=1,
    )


#: Jitter draws generate tries before giving up on the all-pairs check.
MAX_RETRIES = 32


@dataclass(frozen=True)
class TwoParabolasParams:
    """Generator knobs for a fresh two-parabolas instance.

    Attributes:
        n: Domain bits; the instance has 2^n rows.
        x0: Domain index of the first objective's minimum.
        x0p: Domain index of the second objective's minimum; x0p - x0 > 1.
        curvature1: (left, right) base step scales of objective 1 around x0.
        curvature2: (left, right) base step scales of objective 2 around x0p.
        lam: Target separation vector; every base step scale on an
            objective must exceed its entry.
        jitter: Relative spread of the multiplicative step noise.
        seed: Nonnegative RNG seed; the generator is deterministic per seed.
    """

    n: int
    x0: int
    x0p: int
    curvature1: tuple[float, float] = (0.4, 0.8)
    curvature2: tuple[float, float] = (0.6, 1.2)
    lam: tuple[float, float] = (0.2, 0.4)
    jitter: float = 0.05
    seed: int = 0

    def __post_init__(self):
        for name, minimum in (("n", 2), ("x0", 0), ("x0p", 0), ("seed", 0)):
            check_count(name, getattr(self, name), minimum)
        size = 1 << self.n
        if not (self.x0 < self.x0p <= size - 1):
            raise ConfigurationError(
                f"need 0 <= x0 < x0p <= {size - 1}; got x0={self.x0}, x0p={self.x0p}"
            )
        if self.x0p - self.x0 <= 1:
            raise ConfigurationError("optima must be separated by more than one index")
        if not (0.0 <= self.jitter < 0.5):
            raise ConfigurationError("jitter must lie in [0, 0.5)")
        if len(self.lam) != 2:
            raise ConfigurationError(f"need 2 separations, got {len(self.lam)}")
        if not np.all(np.isfinite([*self.lam, *self.curvature1, *self.curvature2])):
            raise ConfigurationError("separations and curvatures must be finite")
        for lam_i, curv in zip(self.lam, (self.curvature1, self.curvature2)):
            if lam_i <= 0:
                raise ConfigurationError("separation entries must be positive")
            if min(curv) * (1.0 - self.jitter) <= lam_i:
                raise ConfigurationError(
                    f"base step {min(curv)} cannot guarantee separation {lam_i}"
                )


def _branch_values(size, vertex, curv_left, curv_right, jitter, rng):
    # One uniform draw per step, left side first; np.cumsum adds in order.
    vals = np.zeros(size)
    for side, curv, count in ((-1, curv_left, vertex), (1, curv_right, size - 1 - vertex)):
        k = np.arange(1, count + 1)
        steps = curv * (2 * k - 1) * (1.0 + jitter * rng.uniform(-1.0, 1.0, count))
        vals[vertex + side * k] = np.cumsum(steps)
    return vals


def generate(params: TwoParabolasParams) -> McoInstance:
    """Build a fresh instance from seeded, jittered quadratic branches.

    The step from index k to its neighbor toward a vertex grows linearly
    with distance, so each objective is a jittered discrete parabola.  The
    post-check is validate(..., collision_scope="all"): every pair of values
    within an objective must differ by more than the target separation; on
    failure the jitter is redrawn up to MAX_RETRIES times.

    Returns:
        McoInstance with lam = params.lam and label_offset = 0.

    Raises:
        GenerationError: When no jitter draw passes the separation check.
    """
    size = 1 << params.n
    rng = np.random.default_rng(params.seed)
    for _ in range(MAX_RETRIES):
        f1 = _branch_values(size, params.x0, *params.curvature1, params.jitter, rng)
        f2 = _branch_values(size, params.x0p, *params.curvature2, params.jitter, rng)
        inst = McoInstance(np.column_stack([f1, f2]), lam=np.asarray(params.lam))
        if validate(inst, collision_scope="all").collision_free:
            return inst
    raise GenerationError(
        f"no jitter draw in {MAX_RETRIES} tries gave all-pairs "
        f"separations above {params.lam}"
    )


@dataclass(frozen=True)
class MonotonicityReport:
    """Outcome of the segmentwise shape check.

    violations holds tuples (segment, objective, x, y, value_x, value_y)
    for adjacent index pairs that break the expected strict ordering.
    """

    ok: bool
    violations: tuple[tuple[str, int, int, int, float, float], ...]


def verify_two_parabolas(inst: McoInstance, x0: int, x0p: int) -> MonotonicityReport:
    """Check the three segmentwise shape conditions of the family.

    Both objectives must strictly decrease on [0, x0], strictly increase
    on [x0p, 2^n - 1], and on the middle segment [x0 + 1, x0p - 1] the
    first objective must strictly increase while the second strictly
    decreases.

    Returns:
        MonotonicityReport listing every violating adjacent pair.
    """
    if inst.d != 2:
        raise ConfigurationError("the shape check applies to 2-objective instances")
    x0, x0p = check_count("x0", x0, 0), check_count("x0p", x0p, 0)
    if not (x0 < x0p <= inst.size - 1):
        raise ConfigurationError(f"bad vertex indices x0={x0}, x0p={x0p}")
    vals = inst.values
    bad: list[tuple[str, int, int, int, float, float]] = []
    for segment, lo, hi, obj, increasing in (
        ("head", 0, x0, 0, False), ("head", 0, x0, 1, False),
        ("tail", x0p, inst.size - 1, 0, True), ("tail", x0p, inst.size - 1, 1, True),
        ("middle", x0 + 1, x0p - 1, 0, True), ("middle", x0 + 1, x0p - 1, 1, False),
    ):
        a, b = vals[lo:hi, obj], vals[lo + 1:hi + 1, obj]
        for x in (lo + np.flatnonzero((b <= a) if increasing else (b >= a))).tolist():
            bad.append((segment, obj, x, x + 1, float(a[x - lo]), float(b[x - lo])))

    return MonotonicityReport(ok=not bad, violations=tuple(bad))
