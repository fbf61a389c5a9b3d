"""Exact counting of line-sum constrained matrices and the statistics they govern.

Layers, bottom up: exact dynamic-programming counts of nonnegative integer
matrices under line-sum constraints (counting), their reconstruction as exact
rational polynomials with volumes and reflection identities (ehrhart), an
independent generating-function route to the same numbers (genfun), exact and
numerical pseudomoments of zeta partial sums (zeta) with their arithmetic
factors (euler), and a reproducible Monte Carlo laboratory over Haar-random
unitary matrices whose moment targets are the exact counts (rmt).

The public names are exported lazily (PEP 562): ``import pseudomagic`` loads
no layer, and the first access to a name imports the layer that defines it.
"""

import importlib

# public name -> the submodule that defines it
_EXPORTS = {
    name: module
    for module, names in {
        "counting": "MatrixCountSpec brute_force_count count count_contingency count_magic "
        "count_pseudomagic count_pseudomagic_multi count_symmetric_even "
        "count_symmetric_even_bounded",
        "ehrhart": "CountingPolynomial HVector birkhoff_volume check_reciprocity "
        "check_trivial_zeros h_vector interpolate magic_polynomial pseudomagic_polynomial "
        "substochastic_volume symmetric_even_bounded_polynomials",
        "errors": "BudgetError",
        "euler": "EulerFactorResult arithmetic_factor_a arithmetic_factor_b dk_prime_power",
        "genfun": "contour_coefficient expansion_count series_count",
        "rmt": "MomentEstimate full_poly_moment_exact g_factor haar_unitary mixed_moment_mc "
        "secular_abs_moment_mc secular_coefficients truncated_poly_moment_mc",
        "zeta": "DivisorProfile convergence_ladder divisor_profile mv_pseudomoment "
        "numeric_moment pair_sum_oracle prediction",
    }.items()
    for name in names.split()
}

__version__ = "0.1.0"

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    # an unknown name must raise AttributeError, so that `from pseudomagic import rmt`
    # falls through to importing the submodule
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
