"""
Scanning the spectral gap along the annealing schedule
======================================================

The annealer interpolates between a driver with a uniform ground state
and a diagonal operator holding the scalarized objective values.  The
smallest gap between the two lowest eigenvalues along that path decides
how slowly the schedule must run.
"""

from pathlib import Path

from moqa import (
    Linearization,
    build_final,
    build_initial,
    builtin_instance,
    delta_max,
    end_gap_diagnostics,
    gap_scan,
    runtime_estimate,
)

OUT = Path(__file__).parent / "output"
OUT.mkdir(exist_ok=True)

inst = builtin_instance()

# Weighting (0.57, 0.43) lands the scalarized minimum on a non-trivial
# Pareto-optimal row, which is the interesting regime.
w = Linearization((0.57, 0.43))

# Driver with penalty 8 on every state orthogonal to the uniform
# superposition, and the diagonal problem operator.
h0 = build_initial(inst.n, scale=8.0)
hw = build_final(inst, w)

# 512 samples; with this driver each inner one is two secular-equation
# roots over the distinct objective values, and no matrix is formed.
curve = gap_scan(h0, hw, points=512)
csv_path = OUT / "gap_curve.csv"
curve.to_csv(csv_path)
print(f"curve written to {csv_path}")

print(f"gap at s=0: {curve.gap[0]}")
print(f"gap at s=1: {curve.gap[-1]}")
print(f"minimum gap {curve.g_min} at s={curve.s_at_min}")

# The two lowest levels approach each other near the end of the
# schedule but never touch.
assert (curve.gap > 0).all()

# Runtime estimates from the scan: a heuristic proportional to
# delta_max / g_min^2 and a conservative rigorous bound.
dmax = delta_max(h0, hw)
est = runtime_estimate(curve.g_min, dmax)
print(f"operator change delta_max: {dmax}")
print(f"heuristic schedule time:   {est.t_heuristic:.4g}")
print(f"rigorous schedule time:    {est.t_rigorous:.4g}")

# End-of-schedule diagnostics relate the final gap to the separation
# vector.  The minimum scalarized value exceeds the weighted separation
# whenever the minimizer is non-trivial; the end gap itself may still
# sit far below it, as it does here.
diag = end_gap_diagnostics(inst, w, gap_curve=curve)
print(f"scalarized minimum: {diag.min_weighted_value}")
print(f"weighted separation:      {diag.weighted_separation}")
print(f"end gap:                  {diag.end_gap}")
print(f"minimizer row {diag.minimizer} (label {inst.label(diag.minimizer)}), "
      f"trivial: {diag.minimizer_is_trivial}")
print(f"minimum exceeds weighted separation: {diag.min_exceeds_weighted_separation}")
print(f"end gap meets weighted separation: {diag.end_gap_meets_weighted_separation}")
print(f"minimum gap attained at the end:   {diag.min_gap_attained_at_end}")
