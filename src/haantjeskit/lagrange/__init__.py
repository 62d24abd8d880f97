"""Concrete charts, operators and flows of the heavy symmetric top."""

from .params import TopParams
from .euler import euler_chart, euler_hamiltonian, euler_chain_operators
from .body import (body_chart, integrals, hamiltonians,
                   lagrange_vector_field, poisson_bivectors,
                   bihamiltonian_fields)
from .complex_chart import (complex_chart, body_to_complex,
                            complex_integrals, p0_complex, p1_complex,
                            x_fields_complex, deformation,
                            nijenhuis_operator, benenti_operators)
from .leaf import (leaf_chart, leaf_map, leaf_structures,
                   separation_map, separation_fields)
from .flow import Trajectory, integrate_flow, max_relative_drift, write_csv

__all__ = [
    "TopParams",
    "euler_chart", "euler_hamiltonian", "euler_chain_operators",
    "body_chart", "integrals", "hamiltonians", "lagrange_vector_field",
    "poisson_bivectors", "bihamiltonian_fields",
    "complex_chart", "body_to_complex", "complex_integrals",
    "p0_complex", "p1_complex", "x_fields_complex", "deformation",
    "nijenhuis_operator", "benenti_operators",
    "leaf_chart", "leaf_map", "leaf_structures",
    "separation_map", "separation_fields",
    "Trajectory", "integrate_flow", "max_relative_drift", "write_csv",
]
