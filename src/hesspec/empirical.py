"""Finite-size Monte Carlo: sample the actual Hessian and compare.

One trial samples features X ~ N(mu, C) (or a universality variant),
draws responses through h*_i = w*^T x_i, evaluates the diagonal
weights d_i = g(y_i, w^T x_i) and solves H = (1/n) X diag(d) X^T,
built block by block of X's columns with one symmetric rank-k product
per sign of d in a block, n columns in all.  One tridiagonal reduction
of H gives all p eigenvalues and, by inverse iteration, eigenvectors
only at the caller's picks.  Every BLAS and LAPACK call of a trial runs
on SciPy's OpenBLAS (see _openblas).  Trial k uses the Philox stream
seeded with base_seed + k.

Trials run in one pool (_pool): the calling thread puts them on one
FIFO queue, in order, and works beside helper threads, one worker per
usable core (at most HESSPEC_THREADS); each holds its p x n feature
matrix, 8 p n bytes, which the Gram overwrites, and H, 8 p^2.  A sweep
hands the pool all its (value, seed) trials at once, seed-major, and a
run of consecutive trials of one seed under one feature law shares one
draw of that seed's centred features C^{1/2} Z (a _Run): the run's first
trial draws it, and it is freed when the run's last trial ends.  A trial
with mu = 0 reads it in place, through one Gram block of at most
_GRAM_BLOCK_BYTES, instead of holding a p x n copy.
"""
from __future__ import annotations

import logging
import mmap
import os
import queue
import threading
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

_GRAM_BLOCK_BYTES = 1 << 20    # bytes of X per column block of the Gram


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


def _law(spec, dist):
    """The feature law of a draw: (dist, n, eigenvalues of C, eigenbasis)."""
    return (dist, spec.n, *spec.cov.eigen(spec.p))


def _same_law(a, b):
    """Whether two _law tuples are equal, field by field."""
    return all(map(np.array_equal, a, b))


def _mapped(shape):
    """A zeroed float64 array of `shape` in an anonymous memory map of its
    own, unmapped as soon as the array is freed.  A _Run's draw lives here
    rather than in malloc: there a p x n array under glibc's 32 MiB mmap
    ceiling comes from the arena of the pool thread that draws it and
    stays resident in that arena once freed, so draws made by turns on
    several threads pile up."""
    return np.frombuffer(mmap.mmap(-1, 8 * int(np.prod(shape))),
                         dtype=float).reshape(shape)


class _Run:
    """The draw shared by a run of consecutive trials of one seed and
    feature law (see _pool): the first get draws the seed's centred
    features into _mapped, read-only, and keeps the Philox state after
    them; every get returns that (features, state)."""

    def __init__(self):
        self.lock, self.draw = threading.Lock(), None

    def get(self, spec, dist, seed):
        with self.lock:
            if self.draw is None:
                rng = np.random.Generator(np.random.Philox(seed))
                centred = _centred_features(spec, dist, rng,
                                            _mapped((spec.p, spec.n)))
                centred.flags.writeable = False
                self.draw = centred, rng.bit_generator.state
            return self.draw


def _pick_index(eigvals, pick):
    """Eigenvalue index of one pick of run_trial."""
    if np.ndim(pick) == 0:
        return range(len(eigvals))[pick]
    lo, hi, lam = pick
    pool = np.flatnonzero((eigvals > lo) & (eigvals < hi))
    if not len(pool):
        pool = np.arange(len(eigvals))
    return int(pool[np.argmin(np.abs(eigvals[pool] - lam))])


def run_trial(spec, dist, seed, picks=(), run=None):
    """Sample one Hessian; return all its eigenvalues and, in `paired`,
    one (index, eigenvector) per pick, in pick order.

    A pick is an eigenvalue index, negative ones counting from the top,
    or a support gap (lo, hi, lam), which picks the eigenvalue nearest
    lam inside (lo, hi), nearest overall when the gap holds none.
    Without picks no eigenvector is solved for; each vector is a copy,
    so no p x p matrix outlives the trial.

    With a _Run `run`, whose trials all have this seed and feature law
    (dist, n and the eigen-decomposition of C), the centred features are
    run's draw, made by its first get, and spec's mu is added to a copy;
    the spectrum is bit-identical to run=None, which draws them afresh.

    The trial's peak memory, besides a run's draw, is its own p x n
    features (none when it reads a run's draw with mu = 0), H and, on a
    read-only draw, one Gram block of _GRAM_BLOCK_BYTES (see _gram).
    """
    rng = np.random.Generator(np.random.Philox(seed))
    if run is None:
        X = sample_features(spec, dist, rng)
    else:
        centred, rng.bit_generator.state = run.get(spec, dist, seed)
        X = centred + spec.mu[:, None] if spec.mu.any() else centred
    h_star = _project(X, spec.w_star)
    y = sample_response(spec.model, h_star, rng)
    h = _project(X, spec.w)
    d = np.asarray(curvature(spec.weight, y, h), dtype=float)
    H = _gram(X, d)
    del X                      # overwritten or a run's; drop it before the solve
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


def _pool(jobs):
    """Spectra of the trials jobs[i] = (spec, dist, seed, picks), in order.

    The calling thread puts every job on one FIFO queue, in order, then a
    None per worker, and then works too: min(len(jobs), worker_count())
    workers, itself and helper threads, take the jobs in order until they
    take a None, with SciPy's OpenBLAS held at one thread while several
    run, so results are the same for any number above one.  One worker,
    or a thread count that cannot be set while HESSPEC_THREADS is unset,
    runs them on the calling thread alone and leaves the count alone.  A
    failure, in a job or in the queueing, stops every worker before its
    next job and is raised here.

    picks may be a function of no arguments: the calling thread calls it
    as it queues the job, while the helpers run the jobs already queued,
    so a sweep's theory runs beside its first trials.

    A run of two or more consecutive jobs of one seed and feature law
    (_law) shares one _Run, which the first of them to get it draws.
    Only the run's queued and running jobs refer to it, so its draw is
    freed when the run's last job ends, and at most one draw per worker
    and the one being drawn are alive.  A lone job draws its own
    features, as run_trial does.
    """
    jobs = list(jobs)
    # joined[i]: job i has job i - 1's seed and feature law, so its draw
    joined = [False, *(a[2] == b[2] and _same_law(_law(*a[:2]), _law(*b[:2]))
                       for a, b in zip(jobs, jobs[1:])), False]
    workers = min(len(jobs), worker_count())
    settable = _openblas.thread_control() is not None
    if not settable and not os.environ.get("HESSPEC_THREADS"):
        workers = 1
    log.debug("pool: trials=%d workers=%d blas=%s draws=%s", len(jobs),
              workers, "settable" if settable else "not-settable",
              "shared" if any(joined) else "fresh")
    out = [None] * len(jobs)
    todo, failed = queue.SimpleQueue(), threading.Event()

    def work():
        """Run queued jobs until a None, or until a job has failed."""
        try:
            for i, picks, run in iter(todo.get, None):
                if failed.is_set():
                    return
                spec, dist, seed, _ = jobs[i]
                out[i] = run_trial(spec, dist, seed, picks, run)
                del run            # no draw is kept while the queue waits
        except BaseException:
            failed.set()
            raise

    def lead():
        """Queue every job, its picks got, then a None per worker; work."""
        run = None
        try:
            for i, (_, _, _, picks) in enumerate(jobs):
                if failed.is_set():
                    break
                if not joined[i]:                # the first job of its run
                    run = _Run() if joined[i + 1] else None
                todo.put((i, picks() if callable(picks) else picks, run))
            del run                              # its queued jobs hold it
        except BaseException:
            failed.set()
            raise
        finally:
            # one per worker; the calling thread takes one even with no jobs
            for _ in range(max(workers, 1)):
                todo.put(None)
        work()

    if workers < 2:
        lead()
        return out
    with _openblas.one_thread(), ThreadPoolExecutor(workers - 1) as pool:
        helpers = [pool.submit(work) for _ in range(workers - 1)]
        lead()
        for helper in helpers:
            helper.result()
    return out


def run_trials(spec, dist, seeds, picks=()):
    """run_trial(spec, dist, seed, picks) for each seed, in order, as one
    _pool: each trial draws its own features."""
    return _pool([(spec, dist, seed, picks) for seed in seeds])


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


def _spike_picks(exact, spike_reports):
    """One run_trial pick per spike, in spike order, given the exact
    support: a spike in a gap of it picks that gap; any other, ranked r
    outermost first among those on its side, picks index r on the left
    and -1 - r on the right."""
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
    return picks


def compare(spec, theory_density, spike_reports, trials, base_seed,
            dist="gaussian", spectra=None):
    """Monte Carlo discrepancy metrics against the asymptotic theory.

    density_l1 sums over the Freedman-Diaconis bins of the pooled
    eigenvalues |the bin's share of them - its theory mass|: the curve's
    trapezoids in ascending grid order (0 outside the grid, NaN as 0)
    plus the atom at 0 it does not draw (_Exterior.atom), counted as
    numpy counts an eigenvalue at 0.  Spike and alignment errors compare the
    per-trial mean eigenpair to each theoretical spike, with its standard
    error alongside; a trial's eigenpair for a spike is its pick of
    _spike_picks on the exact support, support(spec, (-inf, inf)).

    Without `spectra`, compare runs the trials of the seeds base_seed,
    base_seed + 1, ... with run_trials.  `spectra` are those trials, run
    by the caller with the same picks, as sweep does for all its values
    in one pool; compare then only scores them.
    """
    if (isinstance(trials, bool) or not isinstance(trials, (int, np.integer))
            or trials < 1):
        raise DomainError(f"compare needs an integer trials >= 1, "
                          f"got {trials!r}")
    seeds = [base_seed + k for k in range(trials)]
    if spectra is None:
        picks = _spike_picks(support(spec, (-np.inf, np.inf)), spike_reports)
        spectra = run_trials(spec, dist, seeds, picks)
    elif [s.seed for s in spectra] != seeds:
        raise DomainError(f"compare was given the trials of seeds "
                          f"{[s.seed for s in spectra]}, not {seeds}")

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
