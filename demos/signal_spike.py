"""An isolated eigenvalue created by a nonzero feature mean.

With features x ~ N(mu, I) the Hessian gains a rank-one component along
mu.  Once |mu|^2 exceeds the detection threshold sqrt(p/n), an
eigenvalue detaches from the bulk and the corresponding eigenvector
develops a macroscopic overlap with mu.  Both are known in closed form
for the pure-signal logistic case, which makes this a good end-to-end
check of the generic spike machinery.

Run:  python3 demos/signal_spike.py
"""
import numpy as np

from hesspec import analyze, build_spec, signal_spike_closed_form

rho = 0.8   # |mu|^2
cfg = {"p": 512, "n": 2048, "mu": "pm_block(%.17g)" % np.sqrt(rho),
       "model": "logistic", "loss": "logistic", "seed": 11}
spec, seed = build_spec(cfg)
c = spec.c

an = analyze(spec)
spike = an.spikes[0]
cos2 = spike.cos2(spec.V)[0]   # the first column of V is mu

lam_exact, align_exact = signal_spike_closed_form(rho, c)
print(f"spike location   generic {spike.location:.8f}   closed form {lam_exact:.8f}")
print(f"cos^2(v, mu)     generic {cos2:.8f}   closed form {align_exact:.8f}")

# --- finite-size check ------------------------------------------------
rep = an.monte_carlo(trials=5, seed=seed)[0]["comparison"]
emp_lam, theo_lam, err_lam = rep["spike_errors"][0]
emp_c, theo_c, err_c = rep["alignment_errors"][0]
print(f"top eigenvalue   5-trial mean {emp_lam:.5f}   theory {theo_lam:.5f}")
print(f"alignment        5-trial mean {emp_c:.5f}   theory {theo_c:.5f}")
print(f"density L1 discrepancy {rep['density_l1']:.4f}")
