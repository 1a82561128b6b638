"""Limiting spectral density of a logistic-loss Hessian, step by step.

We take a pure-noise logistic problem (no mean, no teacher signal) and
walk from the Stieltjes solver to the density curve and the support
report.  In this special case the Hessian is a quarter-scaled Wishart
matrix, so everything can be checked against the Marchenko-Pastur law.

Run:  python3 demos/density_basics.py
"""
import numpy as np

from hesspec import (ProblemSpec, ScaledIdentity, ResponseModel, WeightFn,
                     analyze, solve_point)

p, n = 512, 2048
spec = ProblemSpec(p=p, n=n, mu=np.zeros(p), cov=ScaledIdentity(1.0),
                   w_star=np.zeros(p), w=np.zeros(p),
                   model=ResponseModel.logistic(),
                   weight=WeightFn.loss_curvature("logistic"))
c = p / n

# --- one point of the Stieltjes transform -----------------------------
# With w = w* = 0 every curvature weight is g = 1/4, so m(z) is the
# Marchenko-Pastur transform at 4z up to scaling: m(z) = 4 m_MP(4z).
z = -0.25
pt = solve_point(spec, z)
x = 4 * z
a = 1 - c - x
m_mp4 = (a - np.sqrt(a * a - 4 * c * x)) / (2 * c * x)
print(f"m({z})          solver  {pt.m.real:.8f}")
print(f"m({z})          exact   {4 * m_mp4:.8f}")

# --- the density curve ------------------------------------------------
# analyze() picks a scan window that contains the bulk and inverts the
# Stieltjes transform on a 400-point grid across it.
an = analyze(spec)
curve = an.curve
mass = np.trapezoid(np.nan_to_num(curve.density), curve.grid)
print(f"total mass              {mass:.4f}   (should be ~1)")

# --- support edges ----------------------------------------------------
left, right = an.support.intervals[0]
print(f"support edges  solver   [{left:.6f}, {right:.6f}]")
print(f"support edges  exact    [{0.25 * (1 - np.sqrt(c)) ** 2:.6f},"
      f" {0.25 * (1 + np.sqrt(c)) ** 2:.6f}]")
