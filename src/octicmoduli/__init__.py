"""Exact invariants and moduli of binary octics / genus-3 hyperelliptic
curves: Shioda invariants, weighted projective classification,
conic-and-quartic reconstruction, automorphism strata, and the full census
over small prime fields.
"""

from .covariants import (
    covariant_eval, derive_syzygies, discriminant_J, express_in_J,
    is_isomorphic, j8_candidates, shioda, solve_j9_j10,
)
from .census import CensusReport, descend, find_isomorphism, run_census
from .fields import (
    QQ, ExtField, PrimeField, ext_gcd_multi, field_make, norm_solve,
)
from .forms import (
    BinaryForm, Gl2Matrix, disc_resultant, gl2_act,
    roots_in_splitting_field, transvect,
)
from .reconstruct import (
    clebsch_data, conic_matrix, conic_parametrize, conic_point,
    conic_quartic_models, reconstruct_generic,
)
from .strata import c4_determinants, detect_group, reconstruct_stratum
from .wps import (
    WeightedPoint, wps_enumerate, wps_equal, wps_normalize,
)

__version__ = "1.0.0"

__all__ = [
    "QQ", "ExtField", "PrimeField", "field_make",
    "ext_gcd_multi", "norm_solve",
    "BinaryForm", "Gl2Matrix", "transvect", "gl2_act", "disc_resultant",
    "roots_in_splitting_field",
    "covariant_eval", "shioda", "discriminant_J", "express_in_J",
    "derive_syzygies", "j8_candidates", "solve_j9_j10", "is_isomorphic",
    "WeightedPoint", "wps_equal", "wps_normalize", "wps_enumerate",
    "clebsch_data", "conic_quartic_models", "conic_matrix", "conic_point",
    "conic_parametrize", "reconstruct_generic",
    "detect_group", "reconstruct_stratum", "c4_determinants",
    "find_isomorphism", "descend", "run_census", "CensusReport",
]
