"""Verification engine for the factorization (2k+1)(2k) zeta({2}^k)
= zeta({2}^{k-1}) 6 zeta(2), the infinite product behind it, and the pi
constants the product generates. Finite identities are checked in exact
rational arithmetic; limits carry certified error brackets."""

from .numeric import (
    ApproxReal,
    DomainError,
    ExactRational,
    HarmonicCache,
    ResourceError,
    even_zeta_bound,
    harmonic,
    pi_oracle,
    zeta2_tail_bracket,
)
from .series import (
    MzvTable,
    f_series_coefficients,
    mzv_bruteforce,
    mzv_limit,
    mzv_truncated,
    zeta_even_truncated,
)
from .product import (
    eval_F,
    eval_F_factored,
    eval_F_shifted,
    monotonicity_scan,
    periodicity_ratio,
    periodicity_sign_report,
    second_derivative_fd,
)
from .pfunc import (
    PCoefficientWitness,
    finite_part,
    fpp_assembly_identity,
    interchange_bound_check,
    p_coefficient_witness,
    p_eval,
    partial_fraction_check,
    telescoped_tail,
)
from .bijection import (
    V1,
    V2,
    WeightedComponent,
    abs_weight_sum_bound,
    alpha_neighbors,
    alpha_residual_identity,
    beta_neighbors,
    beta_residual_identity,
    component,
    factorization_check,
    multiplicity_identity,
    weight,
    weight_form_consistency,
)
from .pi_constants import (
    PiEstimate,
    arc_length,
    g_eval,
    pi_amp,
    pi_freq,
    pythagorean_check,
    three_way_pi_compare,
)
from .report import RunConfig, VerificationReport
from .suites import SUITES, run_suite

__all__ = [name for name in dir() if not name.startswith("_")]
