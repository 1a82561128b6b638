"""The limiting spectrum does not care about the feature distribution.

The asymptotic theory is derived for Gaussian features, but the bulk
density and the spikes depend on the feature law only through its first
two moments.  Here the same logistic Hessian is sampled with Gaussian,
Rademacher and Student-t(7) features and the pooled histograms are
compared against one theory curve.

Run:  python3 demos/universality.py
"""
from hesspec import analyze, build_spec

cfg = {"p": 800, "n": 1200, "mu": "gaussian_norm(1.0)", "w": "mu",
       "model": "logistic", "loss": "logistic", "seed": 21}
spec, seed = build_spec(cfg)

an = analyze(spec)
print("support:", [(round(a, 4), round(b, 4)) for a, b in an.support.intervals])
print("spikes: ", [round(s.location, 4) for s in an.spikes])

for dist in ["gaussian", "rademacher", "student_t:7"]:
    rep = an.monte_carlo(trials=5, seed=seed, dist=dist)[0]["comparison"]
    line = f"{dist:14s} density L1 {rep['density_l1']:.4f}"
    if rep["spike_errors"]:
        emp, theo, err = rep["spike_errors"][0]
        line += f"   spike {emp:.4f} (theory {theo:.4f})"
    print(line)
