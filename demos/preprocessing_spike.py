"""Phase retrieval with trimmed preprocessing: a teacher-aligned spike.

For the quadratic measurement model y = (w*^T x)^2 the weighted Hessian
(1/n) sum_i T(y_i) x_i x_i^T with a trimming window T concentrates an
isolated eigenvalue whose eigenvector correlates with the teacher w*.
This is the spectral initialization used for phase retrieval: the
alignment below is exactly the asymptotic quality of that initializer.

Run:  python3 demos/preprocessing_spike.py
"""
import numpy as np

from hesspec import analyze, build_spec

p, n = 800, 4000
print(f"{'|w*|':>6} {'spike':>10} {'gap':>10} {'cos^2(v,w*)':>12}")
for w_star in [0.4, 0.76, 0.95, 1.4, 2.0]:
    # the evaluation point co-scales with the teacher
    cfg = {"p": p, "n": n, "w_star": "pm_block(%.17g)" % w_star,
           "w": "pm_block(%.17g)" % (w_star * np.sqrt(2.0 / 3.0)),
           "model": "phase_retrieval", "weight": "trim", "seed": 5}
    spec, _ = build_spec(cfg)
    spikes = analyze(spec).spikes
    if spikes:
        # the column C w* of V is the teacher direction
        s = max(spikes, key=lambda r: r.alignment[1, 1])
        cos2 = s.cos2(spec.V)[1]
        print(f"{w_star:6.2f} {s.location:10.5f} {s.gap:10.5f} {cos2:12.6f}")
    else:
        print(f"{w_star:6.2f} {'(no spike)':>10}")
