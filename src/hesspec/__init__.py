"""Asymptotic spectra of generalized GLM Hessians.

Exact limiting eigenvalue densities, isolated eigenvalues and
eigenvector alignments for Hessians H = (1/n) X D X^T of generalized
linear models with Gaussian features, plus a Monte Carlo lab to check
the predictions at finite size.
"""

from ._version import __version__
from .errors import (BranchViolation, ConfigError, DomainError, HesspecError,
                     ImaginaryLeak, MultiplicityViolation, NonConvergence,
                     NumericError, PoleError)
from .models import (GSupportClass, ResponseModel, WeightFn, classify_g_support,
                     curvature, loss_value, preprocess_trim, sample_response)
from .features import (DenseSPD, Diagonal, ProblemSpec, ProjectionLaw,
                       ScaledIdentity, cov_spectrum, pinv2, projection_law,
                       sample_features)
from .expectations import (DEFAULT_QUAD_ORDER, CurvatureMoments, QuadratureGrid,
                           curvature_moments, effective_curvature,
                           effective_curvature_sq, expectation_engine)
from .bulk import (DensityCurve, StieltjesPoint, SupportReport,
                   default_scan_range, density, solve_point,
                   stieltjes_derivatives, support)
from .spikes import (SpikeMatrix, SpikeReport, alignment, find_spikes,
                     model_spike_scalar, resolvent_forms,
                     signal_spike_closed_form, spike_det, spike_matrix,
                     spike_matrix_deriv)
from .empirical import (ComparisonReport, EmpiricalSpectrum, build_hessian,
                        compare, extract_outliers, measure_alignment,
                        run_trial, run_trials, worker_count)
from .config import build_spec, load_config, resolve_vector, spec_echo
from .report import emit_document, emit_table
from .presets import PRESETS, Analysis, analyze, run_preset
