"""Property test: every radial evaluator agrees with the others, since they
all read the modes log|psi_k(z)| from WeightedKernel.log_modes."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from rnmlab.berezin import berezin_kernel, conditional_one_point
from rnmlab.orthopoly import default_grid, weighted_kernel
from rnmlab.potential import compute_droplet, make_radial_power

from conftest import spline_field


FIELDS = {1: make_radial_power(1), 2: make_radial_power(2), 3: make_radial_power(3),
          "spline": spline_field()}


@settings(max_examples=25, deadline=None, derandomize=True, database=None)
@given(field=st.sampled_from(sorted(FIELDS, key=str)),
       n=st.integers(2, 24),
       tau=st.floats(0.5, 2.0),
       u=st.lists(st.floats(0.0, 1.0), min_size=8, max_size=8))
def test_radial_evaluators_agree(field, n, tau, u):
    pot = FIELDS[field]
    m = n / tau
    kern = weighted_kernel(pot, m, n)
    radius = compute_droplet(pot, tau).radius
    u = np.asarray(u)
    z = 1.3 * radius * np.sqrt(u[:4]) * np.exp(2j * np.pi * u[4:])

    log_r1 = kern.log_one_point(z)
    r1 = np.exp(log_r1)
    assert np.allclose(np.sum(np.abs(kern.features(z)) ** 2, axis=-1), r1, rtol=1e-10)
    assert np.allclose(kern.log_weighted(z, z)[0], log_r1, rtol=0.0, atol=1e-10)

    bk = berezin_kernel(kern, 0.4 * z[0])
    radii = radius * np.linspace(0.05, 1.5, 7)
    thetas = np.linspace(0.0, 2.0 * np.pi, 5, endpoint=False)
    dens = bk.density(radii[:, None] * np.exp(1j * thetas)[None, :])
    grid_dens = bk.density_grid(radii, 5)
    assert np.allclose(grid_dens, dens, rtol=1e-9, atol=1e-12 * np.max(dens))

    kern_n = weighted_kernel(pot, float(n), n)
    zc = compute_droplet(pot, 1.0).radius * (0.3 + 0.7 * u[:4]) * np.exp(2j * np.pi * u[4:])
    zc = zc * np.maximum(1.0, 0.3 / np.abs(zc))  # |z| >= 0.3
    psi0_sq = np.exp(2.0 * kern_n.log_modes(zc)[:, 0])
    expect = kern_n.one_point(zc) - psi0_sq
    assert np.allclose(conditional_one_point(pot, n, zc), expect,
                       rtol=1e-9, atol=1e-12 * np.max(kern_n.one_point(zc)))

    grid = default_grid(pot, m, n, n_radial=200)
    assert abs(kern.trace_on(grid) - n) < 1e-8 * n
