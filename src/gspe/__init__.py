"""Low-depth ground-state property estimation: exact simulators, Fourier
machinery for the spectral CDF, shot samplers, and the estimation pipelines."""

from .estimators import (EstimateReport, EstimationConfig, EvolutionBudget,
                         estimate_gse, estimate_gsprop_block,
                         estimate_gsprop_commutative, estimate_gsprop_general,
                         estimate_overlap, good_point, invert_cdf,
                         median_of_means)
from .hadamard import BlockEncoding, embed_block
from .fourier import FourierApprox, build_fourier_approx, degree_for, \
    evaluate_F, heaviside, mollifier
from .pauli import PauliOperator, PauliString, build_operator
from .spectral import (DegenerateGroundSpaceError, SpectralData, diagonalize,
                       evolve, overlaps)

__all__ = [
    "BlockEncoding", "DegenerateGroundSpaceError", "EstimateReport",
    "EstimationConfig", "EvolutionBudget", "FourierApprox", "PauliOperator",
    "PauliString", "SpectralData", "build_fourier_approx", "build_operator",
    "degree_for", "diagonalize", "embed_block", "estimate_gse",
    "estimate_gsprop_block", "estimate_gsprop_commutative",
    "estimate_gsprop_general", "estimate_overlap", "evaluate_F", "evolve",
    "good_point", "heaviside", "invert_cdf", "median_of_means", "mollifier",
    "overlaps",
]
