"""fqrank: exact rank statistics of random matrices over finite fields.

Exact finite-field linear algebra, closed-form and limiting corank laws
for square/rectangular/symmetric/alternating ensembles, seeded samplers
for near-uniform and invertible-matrix models, Fourier-analytic structure
measures, exact corank Markov chains, and a Monte Carlo verification
harness with a CLI front end.
"""

from .errors import (CodimensionTooLarge, DimensionMismatch, EmptySupport,
                     EvenCharacteristic, FqRankError, InvalidArgument,
                     InvalidSpec, NotPrimePower, TooLarge, TooLargeToEnumerate)
from .field import Field, field_new
from .matrix import FqMatrix, dumps_matrix, loads_matrix
from .distributions import (CorankPMF, limit_alt_pmf, limit_rect_pmf,
                            limit_sym_pmf, limit_square_pmf, tv_distance,
                            uniform_alt_pmf, uniform_rect_pmf,
                            uniform_sym_pmf, uniform_square_pmf)
from .models import (EntryDist, ModelSpec, TypeFSpec, band_type_f,
                     corank_of_sample, derive_rng, near_uniform_dist, sample,
                     sample_gl, uniform_entry_dist, validate_conditions)
from .structure import (StructureReport, check_decoupling,
                        check_unconc_implies_uniform, diff_dist, f_abs,
                        linear_form_pmf, moduli, quad_form_pmf, rho,
                        subspace_prob, threshold_set)
from .chain import (ChainSpec, delta_pmf, enumerate_positive_paths, evolve,
                    hit_zero_prob, most_likely_positive_path,
                    path_probability, planted_pmf, transition)
from .oracles import brute_force_pmf
from .harness import (MCResult, VerificationReport, fg_sandwich_check,
                      gl_uniformity_check, mc_corank, odlyzko_check,
                      submatrix_fullrank_check, tv_report, zero_diag_count_check)

__version__ = "0.1.0"

__all__ = [
    "ChainSpec", "CodimensionTooLarge", "CorankPMF",
    "DimensionMismatch", "EmptySupport", "EntryDist", "EvenCharacteristic",
    "Field", "FqMatrix", "FqRankError", "InvalidArgument", "InvalidSpec",
    "MCResult",
    "ModelSpec", "NotPrimePower", "StructureReport", "TooLarge",
    "TooLargeToEnumerate", "TypeFSpec", "VerificationReport", "band_type_f",
    "brute_force_pmf", "check_decoupling", "check_unconc_implies_uniform",
    "corank_of_sample", "delta_pmf", "derive_rng", "diff_dist",
    "dumps_matrix", "enumerate_positive_paths", "evolve", "f_abs",
    "fg_sandwich_check", "field_new", "gl_uniformity_check", "hit_zero_prob",
    "limit_alt_pmf", "limit_rect_pmf", "limit_sym_pmf",
    "limit_square_pmf", "linear_form_pmf", "loads_matrix", "mc_corank", "moduli",
    "most_likely_positive_path", "near_uniform_dist", "odlyzko_check",
    "path_probability", "planted_pmf", "quad_form_pmf", "rho", "sample",
    "sample_gl", "submatrix_fullrank_check", "subspace_prob",
    "threshold_set", "transition", "tv_distance", "tv_report",
    "uniform_alt_pmf", "uniform_entry_dist", "uniform_rect_pmf",
    "uniform_sym_pmf", "uniform_square_pmf", "validate_conditions",
    "zero_diag_count_check",
]
