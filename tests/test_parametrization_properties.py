"""Property tests of the gate parametrizations, with draws at their edges."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from mcbrick.errors import RefusalError
from mcbrick.gates import HaarGateParams, gate_from_haar, haar_params_from_gate
from mcbrick.rmatrix import haar_to_r, map_report

PROPERTY = settings(max_examples=400, deadline=None, derandomize=True, database=None)

angle = st.floats(0.0, 2 * np.pi, exclude_max=True)
# signed distances to an edge, from exactly on it to well off it
offset = st.builds(
    lambda size, sign: sign * size,
    st.sampled_from([0.0, 1e-16, 1e-15, 1e-13, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-6, 1e-4]),
    st.sampled_from([-1.0, 1.0]),
)
# phi anywhere, or next to sin(phi) = 0 (swap edge) or cos(phi) = 0
phi = st.one_of(
    st.floats(0.0, np.pi / 2),
    offset.map(abs),
    offset.map(lambda t: np.pi / 2 - abs(t)),
)


@st.composite
def near_critical(draw):
    # cos(phi) = cos(gamma) at gamma = +-phi, with gamma = delta - alpha + pi
    p, alpha = draw(phi), draw(angle)
    gamma = draw(st.sampled_from([-1.0, 1.0])) * p + draw(offset)
    return HaarGateParams(gamma + alpha - np.pi, alpha, p, draw(angle), draw(angle))


@st.composite
def near_identity(draw):
    # (delta, alpha, phi, chi) = (0, pi/2, pi/2, pi/2) is the identity for any theta
    return HaarGateParams(
        draw(offset),
        np.pi / 2 + draw(offset),
        np.pi / 2 - abs(draw(offset)),
        np.pi / 2 + draw(offset),
        draw(angle),
    )


haar_params = st.one_of(
    st.builds(HaarGateParams, angle, angle, phi, angle, angle),
    near_critical(),
    near_identity(),
)


@PROPERTY
@given(haar_params)
def test_haar_angles_round_trip_through_the_gate(p):
    g = gate_from_haar(p).matrix
    ext = haar_params_from_gate(g)
    assert abs(ext.mu) < 1e-12
    # within 1e-12 of sin(phi) = 0 or cos(phi) = 0 the extraction sets the
    # angle that has become undefined to zero, which moves the two entries
    # of size sin(phi) or cos(phi) by at most twice that size
    edge = min(np.sin(p.phi), np.cos(p.phi))
    tol = 1e-13 + (2.0 * edge if edge <= 1e-12 else 0.0)
    assert np.abs(gate_from_haar(ext.params).matrix - g).max() <= tol


@pytest.mark.filterwarnings("error::RuntimeWarning")
@PROPERTY
@given(haar_params)
# the ratio that sets u rounded onto 1: the map returned beta = inf, xi = nan
@example(HaarGateParams(6.283185306179586, np.pi / 2, np.pi / 2, np.pi / 2, 0.0))
def test_haar_to_r_is_finite_or_refuses(p):
    try:
        r = haar_to_r(p)
    except RefusalError:  # CriticalManifoldError included
        return
    assert all(math.isfinite(v) for v in (r.beta, r.xi, r.theta, r.rho, r.u))


@pytest.mark.xfail(
    strict=True,
    reason="known fault: within about 1e-5 of the critical manifold u and rho "
    "come from arccos/arccosh of ratios near 1 and the map loses precision",
)
@PROPERTY
@given(haar_params)
# 1.7e-9 off the manifold: the map reconstructs the gate only to 1.4e-8
@example(HaarGateParams(2.141592651589793, 0.0, 1.0, 0.0, 0.0))
def test_haar_to_r_reconstructs_or_refuses(p):
    try:
        haar_to_r(p)
    except RefusalError:
        return
    assert map_report(p)["reconstruction_error"] <= 1e-11
