"""Numerical verification toolkit for Haantjes-algebra geometry.

The library evaluates Nijenhuis and Haantjes torsions of operator fields on
coordinate charts, checks the algebraic closure conditions of operator
families, verifies Poisson structures and their chains, and carries the
complete worked case of the heavy symmetric top: body-frame tri-Hamiltonian
structure, ladder relations, the adapted holomorphic chart with its
recursion operator, restriction to a symplectic leaf and the separation
chart on it.
"""

from .charts import (BivectorField, Chart, ChartError, ChartMap,
                     ChartMismatchError, OneFormField, OperatorField, Point,
                     ScalarField, SingularPointError, VectorField,
                     add_fields, apply_operator, apply_transpose,
                     compose_operators, constant_operator, constant_vector,
                     diagonal_operator, differential, exterior_derivative,
                     identity_operator, lie_bracket, operator_polynomial,
                     scale_field, wedge)
from .torsion import (haantjes_torsion, is_haantjes, is_nijenhuis,
                      nijenhuis_torsion)
from .algebra import (MinimalPolynomial, algebra_rank, check_abelian,
                      check_module_condition, check_ring_condition,
                      minimal_polynomial)
from .poisson import (check_chain_closed, check_compatibility, check_jacobi,
                      check_skew, check_skew_compositions, hamiltonian_field,
                      jacobi_residual, lie_derivative,
                      lie_derivative_operator, poisson_bracket, r_tensor)
from .sampling import sample_points
from .report import Check, SampledResidual, VerificationReport
from .suites import SUITE_NAMES, SuiteConfig, run_suite
from . import lagrange

__version__ = "1.0.0"

__all__ = [
    "BivectorField", "Chart", "ChartError", "ChartMap", "ChartMismatchError",
    "OneFormField", "OperatorField", "Point", "ScalarField",
    "SingularPointError", "VectorField",
    "add_fields", "apply_operator", "apply_transpose", "compose_operators",
    "constant_operator", "constant_vector", "diagonal_operator",
    "differential", "exterior_derivative", "identity_operator", "lie_bracket",
    "operator_polynomial", "scale_field", "wedge",
    "SampledResidual", "haantjes_torsion", "is_haantjes", "is_nijenhuis",
    "nijenhuis_torsion",
    "MinimalPolynomial", "algebra_rank", "check_abelian",
    "check_module_condition", "check_ring_condition", "minimal_polynomial",
    "check_chain_closed", "check_compatibility", "check_jacobi", "check_skew",
    "check_skew_compositions", "hamiltonian_field", "jacobi_residual",
    "lie_derivative", "lie_derivative_operator", "poisson_bracket",
    "r_tensor",
    "sample_points",
    "Check", "VerificationReport",
    "SUITE_NAMES", "SuiteConfig", "run_suite",
    "lagrange",
]
