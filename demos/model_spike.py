"""The spike created by evaluating the Hessian away from zero.

When the Hessian of a logistic loss is evaluated at a nonzero point w,
the curvature weights g_i = sigma'(w^T x_i) correlate with the features
and an eigenvalue can detach BELOW the bulk -- this is the mechanism
that produces small or negative curvature directions along w.  The
window of |w| for which the spike exists is nontrivial: it closes again
for very large |w|.

This script sweeps |w| with the generic 3x3 determinant machinery and
cross-checks a few points against an independent scalar solver that
exists for this rotation-invariant special case.

Run:  python3 demos/model_spike.py
"""
from hesspec import analyze, build_spec, model_spike_scalar

p, n = 800, 8000
print(f"{'|w|':>6} {'gap':>12} {'cos^2(v,w)':>12} {'scalar gap':>12} {'scalar cos^2':>13}")
for w_norm in [0.5, 1.46, 2.01, 3.37, 6.0]:
    cfg = {"p": p, "n": n, "w": "pm_block(%.17g)" % w_norm,
           "model": "logistic", "loss": "logistic", "seed": 3}
    spec, _ = build_spec(cfg)
    left_spikes = [s for s in analyze(spec).spikes if s.side == "left"]
    gap_s, align_s, _, _ = model_spike_scalar(w_norm, spec.c)
    if left_spikes:
        s = left_spikes[0]
        cos2 = s.cos2(spec.V)[2]   # C = I, so the column C w is w
        print(f"{w_norm:6.2f} {s.gap:12.6f} {cos2:12.6f} "
              f"{gap_s if gap_s else float('nan'):12.6f} "
              f"{align_s if align_s else float('nan'):13.6f}")
    else:
        print(f"{w_norm:6.2f} {'(no spike)':>12} {'':>12} "
              f"{gap_s if gap_s else float('nan'):12.6f}")
