"""Exact computations in Chevalley-basis Lie algebras.

Root systems with an invariant pairing, integer structure constants,
cocharacter gradings, Kempf-style optimal cocharacters by exact
quadratic programming, graded bracket kernel checks, the symbolic
density exponent phi, and bad-prime degeneracy machinery.
"""

from .badprimes import (CGammaTable, c_gamma, coker_eta, destabilizing_certificate,
                        regular_counterexample, regular_nilpotent, scan_destabilizers)
from .fields import (FFElement, FiniteField, FunctionField, Polynomial, PrimeField,
                     RatFunc, RationalField)
from .gradedmap import (AbsValue, GradedBlockMap, check_kernel, graded_ad,
                        lattice_image, phi, phi_of, torus_conjugate,
                        verify_phi_inverse, verify_rrao)
from .grading import (CocharRational, GradingReport, delta_exponent, grade,
                      instability_ratio_sq, m_of)
from .lie import (LieElement, StructureConstants, bracket, cartan_vector,
                  coroot_element, root_vector, structure_constants)
from .optimality import (OptimalityCertificate, brute_force_verify,
                         certified_torus_check, kirwan_ness_torus_check,
                         minimum_norm_cocharacter, optimal_cocharacter,
                         sl2_completion_check)
from .rootsystem import ADJOINT, SIMPLY_CONNECTED, RootSystem, build, parse_cartan_type

__version__ = "0.1.0"

__all__ = [
    "ADJOINT", "AbsValue", "CGammaTable", "CocharRational", "FFElement",
    "FiniteField", "FunctionField", "GradedBlockMap", "GradingReport",
    "LieElement", "OptimalityCertificate", "Polynomial", "PrimeField",
    "RatFunc", "RationalField", "RootSystem", "SIMPLY_CONNECTED",
    "StructureConstants", "bracket", "brute_force_verify", "build", "c_gamma",
    "cartan_vector", "certified_torus_check", "check_kernel", "coker_eta",
    "coroot_element",
    "delta_exponent", "destabilizing_certificate", "grade", "graded_ad",
    "instability_ratio_sq", "kirwan_ness_torus_check", "lattice_image", "m_of",
    "minimum_norm_cocharacter", "optimal_cocharacter", "parse_cartan_type",
    "phi", "phi_of", "regular_counterexample", "regular_nilpotent",
    "root_vector", "scan_destabilizers", "sl2_completion_check",
    "structure_constants", "torus_conjugate", "verify_phi_inverse", "verify_rrao",
]
