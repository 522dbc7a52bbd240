"""Self-conjugate 7-core partition counts by five independent exact routes:
direct enumeration, the product generating function, an eta-quotient
expansion, a weighted ternary theta decomposition, and Hurwitz class
number formulas.  Everything is integer or Fraction arithmetic; nothing
here ever rounds.
"""

from .arith import HypothesisViolation, is_fundamental, kronecker
from .eisenstein import (
    Discriminant,
    TwoAdicConvention,
    class_number_factor,
    closed_rep_count,
    discriminant_of,
    eisenstein_coeff,
    odd_prime_factor,
    sc7_from_character_sum,
    sc7_from_class_number,
    sc7_scaled,
    theta_from_eisenstein,
    two_adic_factor,
)
from .partitions import is_t_core, sc_count
from .qseries import QSeries, SC7_ETA_QUOTIENT, EtaQuotientSpec, eta_quotient_series, sc_series
from .quadforms import BinaryQF, dirichlet_hurwitz, hurwitz, hurwitz_scaled, reduced_forms
from .ternary import DECOMPOSITION_FORMS, DECOMPOSITION_WEIGHTS, TernaryQF, rep_count, sc7_from_thetas, theta_coeffs

__version__ = "0.1.0"

__all__ = [
    "BinaryQF",
    "DECOMPOSITION_FORMS",
    "DECOMPOSITION_WEIGHTS",
    "Discriminant",
    "EtaQuotientSpec",
    "HypothesisViolation",
    "QSeries",
    "SC7_ETA_QUOTIENT",
    "TernaryQF",
    "TwoAdicConvention",
    "class_number_factor",
    "closed_rep_count",
    "dirichlet_hurwitz",
    "discriminant_of",
    "eisenstein_coeff",
    "eta_quotient_series",
    "hurwitz",
    "hurwitz_scaled",
    "is_fundamental",
    "is_t_core",
    "kronecker",
    "odd_prime_factor",
    "rep_count",
    "reduced_forms",
    "sc7_from_character_sum",
    "sc7_from_class_number",
    "sc7_from_thetas",
    "sc7_scaled",
    "sc_count",
    "sc_series",
    "theta_coeffs",
    "theta_from_eisenstein",
    "two_adic_factor",
]
