"""Finite-size Monte Carlo: sample the actual Hessian and compare.

One trial samples features X ~ N(mu, C) (or a universality variant),
draws responses through h*_i = w*^T x_i, evaluates the diagonal
weights d_i = g(y_i, w^T x_i) and solves H = (1/n) X diag(d) X^T,
built block by block of X's columns with one symmetric rank-k product
per sign of d in a block, n columns in all.  One tridiagonal reduction
of H gives all p eigenvalues and, by inverse iteration, eigenvectors
only at the caller's picks.  Every BLAS and LAPACK call of a trial runs
on SciPy's OpenBLAS (see _openblas).  Trial k uses the Philox stream
seeded with base_seed + k.  Several trials run at once on threads, one
per usable core (at most HESSPEC_THREADS), each holding its p x n
feature matrix, 8 p n bytes, which the Gram overwrites, and H, 8 p^2.
A sweep may keep each seed's centred draw C^{1/2} Z in a dict `shared`
for the next trial of that seed under the same feature law; a trial
with mu = 0 then reads it in place, through one Gram block of at most
_GRAM_BLOCK_BYTES, instead of holding a p x n copy.
"""
from __future__ import annotations

import logging
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np
from scipy.linalg import eigh_tridiagonal, lapack

from . import _openblas
from .bulk import _exterior, support
from .errors import DomainError, NumericError
from .features import _centred_features, sample_features
from .models import curvature, sample_response

__all__ = [
    "EmpiricalSpectrum",
    "ComparisonReport",
    "build_hessian",
    "run_trial",
    "run_trials",
    "extract_outliers",
    "measure_alignment",
    "compare",
    "worker_count",
]

log = logging.getLogger("hesspec")

_GRAM_BLOCK_BYTES = 8 << 20    # bytes of X per column block of the Gram


@dataclass(frozen=True, eq=False)
class EmpiricalSpectrum:
    eigenvalues: np.ndarray    # ascending
    seed: int
    paired: tuple = ()         # (index, eigenvector) per pick, in pick order


@dataclass(frozen=True, eq=False)
class ComparisonReport:
    density_l1: float
    spike_errors: list         # (empirical, theoretical, |difference|)
    alignment_errors: list     # (empirical cos2, theoretical cos2, |difference|)
    spike_stderr: list         # standard error of each empirical mean;
    alignment_stderr: list     # None for a single trial
    trials: int
    seeds: list


def worker_count():
    """Most trials run at once: HESSPEC_THREADS, else the usable cores.

    Each running trial holds its own p x n feature matrix and H, about
    8 (p n + p^2) bytes, and uses one thread of SciPy's OpenBLAS (see
    run_trials), so the default fills every core the process may run on.
    """
    env = os.environ.get("HESSPEC_THREADS")
    if env:
        try:
            k = int(env)
        except ValueError:
            k = 0
        if k < 1:
            raise DomainError(
                f"HESSPEC_THREADS must be a positive integer, got {env!r}")
        return k
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:     # no affinity call on this platform
        return os.cpu_count() or 1


def _project(X, v):
    """v^T X for a C-ordered p x n X, as one dgemv on X^T (no copy)."""
    p, n = X.shape
    out = np.empty(n)
    _openblas.blas("dgemv", "N", n, p, 1.0, X.T, n,
                   np.ascontiguousarray(v, dtype=float), 1, 0.0, out, 1)
    return out


def _gram(X, d):
    """(1/n) X diag(d) X^T in the lower triangle of a Fortran-ordered
    p x p array whose upper triangle is zero.

    X is read in blocks of columns, _GRAM_BLOCK_BYTES each (the last one
    may be narrower).  A block is scaled by sqrt(|d| / n), its columns
    with d < 0 are swapped behind the others, and each sign adds its
    columns with one symmetric rank-k product, SciPy's dsyrk on the
    transposed block; so the Gram costs n columns of dsyrk for any signs.
    Each block is scaled into itself when X is writeable (C-ordered), so
    X is overwritten, and into one work array when it is read-only; the
    same values in the same order, so the same H.  Swaps go in row slices
    of a sixteenth of the block, so no temporary exceeds that.
    """
    p, n = X.shape
    scale = np.sqrt(np.abs(d) / n)
    width = max(1, _GRAM_BLOCK_BYTES // (8 * p))
    rows = max(1, p // 16)
    work = None if X.flags.writeable else np.empty((p, min(width, n)))
    H = np.zeros((p, p), order="F")
    for j in range(0, n, width):
        neg = d[j:j + width] < 0
        m = len(neg)
        block = X[:, j:j + m]
        block = np.multiply(block, scale[j:j + m],
                            out=block if work is None else work[:, :m])
        k = m - np.count_nonzero(neg)         # columns with d >= 0
        if 0 < k < m:
            front, back = np.flatnonzero(neg[:k]), k + np.flatnonzero(~neg[k:])
            for r in range(0, p, rows):
                part = block[r:r + rows]
                t = part[:, front]
                part[:, front] = part[:, back]
                part[:, back] = t
        ld = block.strides[0] // 8
        for lo, hi, sign in ((0, k, 1.0), (k, m, -1.0)):
            if hi > lo:
                _openblas.blas("dsyrk", "L", "T", p, hi - lo, sign,
                               block[:, lo:hi].T, ld, 1.0, H, p)
    return H


def build_hessian(X, d):
    """H = (1/n) X diag(d) X^T, exactly symmetric; X is not modified:
    _gram reads it through a read-only view."""
    X = np.asarray(X, dtype=float).view()
    X.flags.writeable = False
    d = np.asarray(d, dtype=float)
    if d.shape != (X.shape[1],):
        raise DomainError("weight vector length must match the sample count")
    H = _gram(X, d)
    return np.where(np.tri(len(H), dtype=bool), H, H.T)


class _Tridiagonal:
    """T = Q^T H Q for a symmetric H, from one Householder reduction
    (LAPACK dsytrd) of its lower triangle, which it overwrites with the
    reflectors whose product is Q."""

    def __init__(self, H):
        self.p = p = len(H)
        self.c, self.diag = H, np.empty(p)
        self.off, self.tau = np.empty(p - 1), np.empty(p - 1)
        lwork = int(lapack.dsytrd_lwork(p, lower=1)[0])
        _openblas.lapack("dsytrd", "L", p, H, p, self.diag, self.off,
                         self.tau, np.empty(lwork), lwork)

    def eigenvalues(self):
        """All p eigenvalues of H, ascending, by root-free QR on T
        (dsterf): the routines np.linalg.eigvalsh runs."""
        vals = self.diag.copy()
        _openblas.lapack("dsterf", self.p, vals, self.off.copy())
        return vals

    def eigenvectors(self, ks):
        """{k: unit eigenvector of H} for the eigenvalue indices ks.

        Bisection and inverse iteration (dstebz, dstein) give T's vectors,
        one call per run of consecutive indices so that the vectors of a
        run are orthogonal; one dormtr call applies Q to them.
        """
        ks = np.unique(ks)
        runs = np.split(ks, np.flatnonzero(np.diff(ks) > 1) + 1)
        Z = np.asfortranarray(np.hstack([
            eigh_tridiagonal(self.diag, self.off, select="i",
                             select_range=(run[0], run[-1]),
                             check_finite=False)[1] for run in runs]))
        p, m = Z.shape
        _openblas.lapack("dormtr", "L", "L", "N", p, m, self.c, p, self.tau,
                         Z, p, np.empty(m), m)
        return {int(k): Z[:, j].copy() for j, k in enumerate(ks)}


@dataclass(frozen=True, eq=False)
class _Draw:
    """One seed's centred features in a holder of shared draws."""

    law: tuple                 # (dist, n, eigenvalues of C, eigenbasis)
    centred: np.ndarray        # C^{1/2} Z, read-only
    state: dict                # the Philox state after the draw


def _shared_features(spec, dist, seed, rng, shared):
    """mu + C^{1/2} Z for seed, with C^{1/2} Z taken from the holder
    `shared` when it was drawn there under the same law (rng then
    continues from the state after that draw), else drawn from rng and
    stored for the next call.  For mu = 0 this is the held, read-only
    array itself; otherwise a fresh buffer."""
    law = (dist, spec.n, *spec.cov.eigen(spec.p))
    held = shared.get(seed)
    if held is not None and all(map(np.array_equal, held.law, law)):
        rng.bit_generator.state = held.state
    else:
        shared.pop(seed, None)     # free the stale draw before the new one
        centred = _centred_features(spec, dist, rng)
        centred.flags.writeable = False
        held = shared[seed] = _Draw(law, centred, rng.bit_generator.state)
    return held.centred + spec.mu[:, None] if spec.mu.any() else held.centred


def _pick_index(eigvals, pick):
    """Eigenvalue index of one pick of run_trial."""
    if np.ndim(pick) == 0:
        return range(len(eigvals))[pick]
    lo, hi, lam = pick
    pool = np.flatnonzero((eigvals > lo) & (eigvals < hi))
    if not len(pool):
        pool = np.arange(len(eigvals))
    return int(pool[np.argmin(np.abs(eigvals[pool] - lam))])


def run_trial(spec, dist, seed, picks=(), shared=None):
    """Sample one Hessian; return all its eigenvalues and, in `paired`,
    one (index, eigenvector) per pick, in pick order.

    A pick is an eigenvalue index, negative ones counting from the top,
    or a support gap (lo, hi, lam), which picks the eigenvalue nearest
    lam inside (lo, hi), nearest overall when the gap holds none.
    Without picks no eigenvector is solved for; each vector is a copy,
    so no p x p matrix outlives the trial.

    With a holder `shared` (a dict), the centred features of seed are
    reused from it when they were drawn under the same feature law
    (dist, n and the eigen-decomposition of C), and drawn and stored
    there otherwise; the spectrum is bit-identical to shared=None.

    The trial's peak memory, besides a held draw, is its own p x n
    features (none when it reads a held draw with mu = 0), H and, on a
    read-only draw, one Gram block of _GRAM_BLOCK_BYTES (see _gram).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    if shared is None:
        X = sample_features(spec, dist, rng)
    else:
        X = _shared_features(spec, dist, seed, rng, shared)
    h_star = _project(X, spec.w_star)
    y = sample_response(spec.model, h_star, rng)
    h = _project(X, spec.w)
    d = np.asarray(curvature(spec.weight, y, h), dtype=float)
    H = _gram(X, d)
    del X                      # overwritten or held; drop it before the solve
    try:
        T = _Tridiagonal(H)
        eigvals = T.eigenvalues()
        ks = [_pick_index(eigvals, pick) for pick in picks]
        vecs = T.eigenvectors(ks) if ks else {}
    except np.linalg.LinAlgError as err:
        raise NumericError(f"eigensolver failed for seed {seed}: {err}")
    return EmpiricalSpectrum(eigenvalues=eigvals, seed=int(seed),
                             paired=tuple((k, vecs[k]) for k in ks))


def extract_outliers(spectrum, support_report, edge_tol=None):
    """Eigenvalues beyond the theoretical edges by more than edge_tol, as
    (value, side, index) with the side of the nearest interval (the first
    of equally near ones).

    Default tolerance is 5/p times the span of the support's finite ends
    (of the eigenvalues if fewer than two), absorbing edge fluctuation.
    """
    intervals = support_report.intervals
    if not intervals:
        return []
    lam = spectrum.eigenvalues
    left, right = ends = np.array(intervals, dtype=float).T
    if edge_tol is None:
        finite = ends[np.isfinite(ends)]
        edge_tol = np.ptp(finite if len(finite) > 1 else lam) * 5.0 / len(lam)
    # distance past each interval's nearer end, <= 0 inside it
    below = lam[:, None] < left
    dist = np.where(below, left - lam[:, None], lam[:, None] - right)
    near = np.argmin(dist, axis=1)
    rows = np.arange(len(lam))
    return [(float(lam[k]), "left" if below[k, near[k]] else "right", int(k))
            for k in rows[dist[rows, near] > edge_tol]]


def measure_alignment(vec, target):
    """Squared cosine (target^T vec)^2 / |target|^2 for a unit vector vec."""
    target = np.asarray(target, dtype=float)
    nrm2 = target @ target
    if nrm2 == 0:
        raise DomainError("alignment target must be nonzero")
    return float((target @ np.asarray(vec, dtype=float)) ** 2 / nrm2)


def run_trials(spec, dist, seeds, picks=(), shared=None):
    """run_trial(spec, dist, seed, picks, shared) for each seed, in order.

    min(len(seeds), worker_count()) trials run at once.  While several
    do, SciPy's OpenBLAS is held at one thread, so results are the same
    for any number of workers above one; one worker runs a plain loop and
    leaves it alone.  Every run is a plain loop when its thread count
    cannot be set and HESSPEC_THREADS is unset.  Draws that a holder
    `shared` keeps for seeds not in this run are dropped first.
    """
    workers = min(len(seeds), worker_count())
    settable = _openblas.thread_control() is not None
    if not settable and not os.environ.get("HESSPEC_THREADS"):
        workers = 1
    log.debug("run_trials: trials=%d workers=%d blas=%s draws=%s", len(seeds),
              workers, "settable" if settable else "not-settable",
              "fresh" if shared is None else "shared")
    if shared is not None:
        for stale in shared.keys() - set(seeds):
            del shared[stale]

    def one(seed):
        return run_trial(spec, dist, seed, picks, shared=shared)

    if workers < 2:
        return [one(s) for s in seeds]
    with _openblas.one_thread(), ThreadPoolExecutor(workers) as pool:
        return list(pool.map(one, seeds))


def _gap_pick(support_report, lam):
    """The pick (lo, hi, lam) of the gap between two support intervals
    that holds lam, or None."""
    ivs = sorted(support_report.intervals)
    for (_, lo), (hi, _) in zip(ivs, ivs[1:]):
        if lo < lam < hi:
            return lo, hi, lam
    return None


def _mean_stderr(samples):
    """Mean and standard error (sample standard deviation over the root
    of the count) of per-trial values; the error is None for one value."""
    mean = float(np.mean(samples))
    if len(samples) < 2:
        return mean, None
    return mean, float(np.std(samples, ddof=1) / np.sqrt(len(samples)))


def compare(spec, theory_density, spike_reports, trials, base_seed,
            dist="gaussian", shared=None):
    """Monte Carlo discrepancy metrics against the asymptotic theory.

    density_l1 sums over the Freedman-Diaconis bins of the pooled
    eigenvalues |the bin's share of them - its theory mass|: the curve's
    trapezoids in ascending grid order (0 outside the grid, NaN as 0)
    plus the atom at 0 it does not draw (_Exterior.atom), counted as
    numpy counts an eigenvalue at 0.  Spike and alignment errors compare the
    per-trial mean eigenpair to each theoretical spike, with its standard
    error alongside.  Each spike makes one pick of run_trials, in spike
    order: a spike in a gap of the exact support, support(spec, (-inf,
    inf)), picks that gap; any other, ranked r outermost first among those
    on its side, picks index r on the left and -1 - r on the right.
    `shared` goes to run_trials.
    """
    if (isinstance(trials, bool) or not isinstance(trials, (int, np.integer))
            or trials < 1):
        raise DomainError(f"compare needs an integer trials >= 1, "
                          f"got {trials!r}")
    seeds = [base_seed + k for k in range(trials)]
    exact = support(spec, (-np.inf, np.inf))
    picks = []
    for i, rep in enumerate(spike_reports):
        # rank r outermost first, ties in spike order, among the spikes on
        # this side; one in a gap is inward of every spike outside a gap
        sign = -1 if rep.side == "right" else 1
        r = sum((sign * other.location, j) < (sign * rep.location, i)
                for j, other in enumerate(spike_reports)
                if other.side == rep.side)
        picks.append(_gap_pick(exact, rep.location) or
                     (r if sign > 0 else -1 - r))
    spectra = run_trials(spec, dist, seeds, picks, shared=shared)

    pooled = np.concatenate([s.eigenvalues for s in spectra])
    counts, edges = np.histogram(pooled, bins="fd")
    rank = np.argsort(theory_density.grid, kind="stable")
    x = theory_density.grid[rank]
    f = np.nan_to_num(theory_density.density[rank], nan=0.0)
    # the theory measure below each edge (numpy's last bin is closed): the
    # curve's trapezoids, 0 outside its grid, and the atom as a step at 0
    cdf = np.concatenate(([0.0], np.cumsum(np.diff(x) * (f[1:] + f[:-1]) / 2)))
    j = np.clip(np.searchsorted(x, edges) - 1, 0, len(x) - 2)
    t = np.clip(edges - x[j], 0.0, x[j + 1] - x[j])
    below = cdf[j] + t * (f[j] + np.interp(x[j] + t, x, f)) / 2
    below += _exterior(spec).atom * np.append(edges[:-1] > 0, edges[-1] >= 0)
    density_l1 = float(np.sum(np.abs(counts / len(pooled) - np.diff(below))))

    spike_errors, alignment_errors = [], []
    spike_stderr, alignment_stderr = [], []
    for i, rep in enumerate(spike_reports):
        # dominant structural direction of this spike
        col = int(np.argmax(np.diag(rep.alignment)))
        target = spec.V[:, col]
        theo_cos2 = rep.cos2(spec.V)[col]
        emp_lam, lam_err = _mean_stderr(
            [s.eigenvalues[s.paired[i][0]] for s in spectra])
        emp_c, c_err = _mean_stderr(
            [measure_alignment(s.paired[i][1], target) for s in spectra])
        spike_errors.append((emp_lam, rep.location, abs(emp_lam - rep.location)))
        alignment_errors.append((emp_c, theo_cos2, abs(emp_c - theo_cos2)))
        spike_stderr.append(lam_err)
        alignment_stderr.append(c_err)
    return ComparisonReport(density_l1=density_l1, spike_errors=spike_errors,
                            alignment_errors=alignment_errors,
                            spike_stderr=spike_stderr,
                            alignment_stderr=alignment_stderr, trials=trials,
                            seeds=seeds)
