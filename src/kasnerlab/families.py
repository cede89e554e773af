"""Fixed data families used by the tests and the benchmark.

Three families, all on periodic cubic grids:

* homogeneous: constant exponents, identity metric block.  Everything
  downstream must be exact (residuals vanish identically).
* u-wave: exponents varying along x^1 through a single sine mode of the
  parameter u, a single-mode c22(x^3), and the closed-form c33(u) that makes
  the third transport right side vanish.  Satisfies the differential
  constraint up to derivative/quadrature error and is exactly periodic (all
  transport loop integrals vanish), so it is the clean family for decay-rate
  and seam tests.
* random: seeded band-limited trigonometric fields for u and all six c
  entries.  Type-level identities hold by construction; the differential
  constraint is deliberately NOT satisfied.  Used where an off-constraint
  data set is required.
"""

import numpy as np

from .asymdata import (
    AsymptoticDataSet,
    assemble_dataset,
    exponents_from_u,
)
from .grids import ScalarField


def u_wave_c33(u, u_ref=2.0):
    """Closed-form c33 profile that transports trivially along x^3.

    Solves d(log c33)/du = 2 (u^2 - 1) / [u (u + 2)(u^2 + u + 1)], which is
    the condition that the kappa_1^3 transport right side vanishes when the
    exponents come from the u-parametrization, u varies only along x^1, and
    c22 has no x^1 dependence.  Normalized so c33(u_ref) = 1.
    """
    def raw(v):
        v = np.asarray(v, dtype=float)
        rational = (v * v + v + 1.0) / (v * (v + 2.0))
        angle = (2.0 * v + 1.0) / np.sqrt(3.0)
        return rational * np.exp((2.0 / np.sqrt(3.0)) * np.arctan(angle))

    return raw(u) / raw(u_ref)


def u_wave_profile(grid, u0=2.0, u_amp=0.1):
    """The u field of the u-wave family: u0 + u_amp * sin(2 pi x^1 / delta)."""
    x1 = grid.mesh(1)
    u = u0 + u_amp * np.sin(2.0 * np.pi * x1 / grid.delta)
    return np.broadcast_to(u, grid.shape).copy()


def u_wave_dataset(grid, u0=2.0, u_amp=0.1, c22_amp=0.3):
    """Constraint-satisfying inhomogeneous family.

    u = u0 + u_amp sin(2 pi x^1/delta), c22 = exp(c22_amp sin(2 pi x^3/delta)),
    c33 = u_wave_c33(u), kappa_1^2 = 0, homogeneous slices.  With these
    choices every transport right side is x^2-independent and the loop
    integrals along x^3 vanish, so the assembled data are exactly periodic.
    """
    u = u_wave_profile(grid, u0=u0, u_amp=u_amp)
    p = exponents_from_u(ScalarField(grid, u))
    x3 = grid.mesh(3)
    c22 = np.broadcast_to(np.exp(c22_amp * np.sin(2.0 * np.pi * x3 / grid.delta)), grid.shape).copy()
    c33 = u_wave_c33(u)
    return assemble_dataset(p, c22, c33, kappa12=0.0)


def homogeneous_dataset(grid, u0=2.0):
    """Spatially constant exponents with the identity metric block."""
    p = exponents_from_u(ScalarField(grid, np.full(grid.shape, float(u0))))
    c = np.zeros((3, 3) + grid.shape)
    c[0, 0] = c[1, 1] = c[2, 2] = 1.0
    return AsymptoticDataSet(grid, p, c)


def layered_dataset(grid, u0=2.0, c11_amp=0.3, kappa12_amp=0.1, slice_amp=0.2):
    """Inhomogeneous data varying along x^1 only, with constant exponents.

    Every transport right-hand side vanishes pointwise (no x^2 or x^3
    dependence anywhere, and the stencil is exactly zero on such fields), so
    the assembled data satisfy the momentum constraint and are periodic with
    seam mismatch exactly 0.0, while keeping all off-diagonal metric entries
    active through the kappa slices.
    """
    p = exponents_from_u(ScalarField(grid, np.full(grid.shape, float(u0))))
    n = grid.n_pts
    k = 2.0 * np.pi / grid.delta
    x1_line = grid.axis_coords()
    col = np.ones((1, n))
    c11_slice = np.exp(c11_amp * np.sin(k * x1_line))[:, None] * col
    kappa12 = np.broadcast_to(
        kappa12_amp * np.sin(k * grid.mesh(1)), grid.shape
    ).copy()
    k23_slice = slice_amp * np.cos(k * x1_line)[:, None] * col
    k13_slice = slice_amp * np.sin(2.0 * k * x1_line)[:, None] * col
    return assemble_dataset(
        p,
        c22=1.0,
        c33=1.0,
        kappa12=kappa12,
        c11_slice=c11_slice,
        kappa23_slice=k23_slice,
        kappa13_slice=k13_slice,
    )


def _trig_field(grid, rng, amp, kmax=2):
    """Band-limited random trig polynomial with max amplitude <= amp.

    Modes k in {-kmax..kmax}^3 \\ {0} with seeded coefficients; normalized by
    the coefficient l1 norm so the sup bound is exact, then scaled by amp.
    """
    coords = [grid.mesh(ax) * (2.0 * np.pi / grid.delta) for ax in (1, 2, 3)]
    out = np.zeros(grid.shape)
    total = 0.0
    for k1 in range(-kmax, kmax + 1):
        for k2 in range(-kmax, kmax + 1):
            for k3 in range(kmax + 1):
                if (k1, k2, k3) == (0, 0, 0) or (k3 == 0 and (k2 < 0 or (k2 == 0 and k1 < 0))):
                    continue
                a, b = rng.normal(size=2)
                phase = k1 * coords[0] + k2 * coords[1] + k3 * coords[2]
                out = out + a * np.cos(phase) + b * np.sin(phase)
                total += abs(a) + abs(b)
    return amp * out / total


def random_dataset(grid, seed, u0=2.0, u_amp=0.25, diag_amp=0.3, offdiag_amp=0.2):
    """Seeded random data: type identities hold, differential constraint does not."""
    rng = np.random.default_rng(seed)
    u = u0 + _trig_field(grid, rng, u_amp)
    p = exponents_from_u(ScalarField(grid, u))
    c = np.zeros((3, 3) + grid.shape)
    for i in range(3):
        c[i, i] = np.exp(_trig_field(grid, rng, diag_amp))
    for i, j in ((0, 1), (0, 2), (1, 2)):
        c[i, j] = c[j, i] = _trig_field(grid, rng, offdiag_amp)
    return AsymptoticDataSet(grid, p, c)
