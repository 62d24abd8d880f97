"""Euler-angle chart: Hamiltonian and the diagonal operator family whose
transposes map the energy gradient onto the gradients of the classical
integrals."""

from __future__ import annotations

from ..charts import (Chart, ScalarField, VectorField, diagonal_operator,
                      identity_operator)
from ..jets import cos_, sin_
from .params import TopParams

# coordinate order: (phi, theta, psi, p_phi, p_theta, p_psi)
PHI, THETA, PSI, P_PHI, P_THETA, P_PSI = range(6)

_EULER_COORDS = ("phi", "theta", "psi", "p_phi", "p_theta", "p_psi")


def _sin_theta(x):
    return sin_(x[THETA])


def _cos_theta(x):
    return cos_(x[THETA])


def _momentum_gap(x):
    return x[P_PHI] - x[P_PSI] * cos_(x[THETA])


def euler_chart() -> Chart:
    return Chart("euler", 6, _EULER_COORDS,
                 singular=(_sin_theta, _cos_theta, _momentum_gap))


def euler_hamiltonian(params: TopParams) -> ScalarField:
    c = params.c

    def fn(x):
        s = sin_(x[THETA])
        gap = x[P_PHI] - x[P_PSI] * cos_(x[THETA])
        kinetic = (x[P_THETA] ** 2 + gap * gap / (s * s)
                   + x[P_PSI] ** 2 / c) / 2.0
        return kinetic + cos_(x[THETA])

    return ScalarField(euler_chart(), fn)


def euler_chain_operators(params: TopParams):
    """The identity plus the two diagonal operators acting on the
    ``(phi, p_phi)`` and ``(theta, p_theta)`` blocks."""
    chart = euler_chart()

    def k2_entries(x):
        s = sin_(x[THETA])
        f = s * s / (x[P_PHI] - x[P_PSI] * cos_(x[THETA]))
        return [f, 0.0, 0.0, f, 0.0, 0.0]

    def k3_entries(x):
        s = sin_(x[THETA])
        ct = cos_(x[THETA])
        f = -s * s / (ct * (x[P_PHI] - x[P_PSI] * ct))
        return [0.0, f, 0.0, 0.0, f, 0.0]

    return (identity_operator(chart),
            diagonal_operator(VectorField(chart, k2_entries)),
            diagonal_operator(VectorField(chart, k3_entries)))
