"""Fixed data families used by the tests and the benchmark.

Four families with no settable value: u is U0 or a profile near it, and
each amplitude is a literal that the family's docstring states.  Every
profile has period delta; the tests also build layered data on LOCALIZED
grids.

* homogeneous: constant exponents, identity metric block.  Everything
  downstream must be exact (residuals vanish identically).
* u-wave: exponents varying along x^1 through a single sine mode of the
  parameter u, a single-mode c22(x^3), and the closed-form c33(u) that makes
  the third transport right side vanish.  Satisfies the differential
  constraint up to derivative/quadrature error and is periodic analytically
  (every transport loop integral vanishes); on the grid the x^3 loop
  integral of kappa_1^3 is O(h^4), the SeamReport's kappa13_jump.  It is the
  clean family for decay-rate and seam tests.
* layered: constant exponents, data varying along x^1 only, and a seam
  mismatch of exactly 0.0.
* random: seeded band-limited trigonometric fields for u and all six c
  entries.  Type-level identities hold by construction; the differential
  constraint is deliberately NOT satisfied.  Used where an off-constraint
  data set is required.
"""

import numpy as np

from .asymdata import SLOTS, AsymptoticDataSet, assemble_dataset, exponents_from_u

# the exponent parameter of every family; u = 2 gives p = (-2, 3, 6) / 7
U0 = 2.0


def u_wave_c33(u):
    """Closed-form c33 profile that transports trivially along x^3.

    Solves d(log c33)/du = 2 (u^2 - 1) / [u (u + 2)(u^2 + u + 1)], which is
    the condition that the kappa_1^3 transport right side vanishes when the
    exponents come from the u-parametrization, u varies only along x^1, and
    c22 has no x^1 dependence.  Normalized so c33(U0) = 1.
    """
    def raw(v):
        v = np.asarray(v, dtype=float)
        rational = (v * v + v + 1.0) / (v * (v + 2.0))
        angle = (2.0 * v + 1.0) / np.sqrt(3.0)
        return rational * np.exp((2.0 / np.sqrt(3.0)) * np.arctan(angle))

    return raw(u) / raw(U0)


def u_wave_profile(grid):
    """The u field of the u-wave family: U0 + 0.1 sin(2 pi x^1 / delta)."""
    u = U0 + 0.1 * np.sin(2.0 * np.pi * grid.mesh(1) / grid.delta)
    return np.broadcast_to(u, grid.shape).copy()


def u_wave_dataset(grid):
    """Constraint-satisfying inhomogeneous family.

    u = U0 + 0.1 sin(2 pi x^1/delta), c22 = exp(0.3 sin(2 pi x^3/delta)),
    c33 = u_wave_c33(u), kappa_1^2 = 0, homogeneous slices.  With these
    choices every transport right side is x^2-independent and the loop
    integrals along x^3 vanish, so the data are periodic analytically.  On
    the grid they are periodic only to the discrete loop integral of the
    kappa_1^3 transport, O(h^4): SeamReport.kappa13_jump, 6.4e-8 at n = 32.
    """
    u = u_wave_profile(grid)
    p = exponents_from_u(grid, u)
    x3 = grid.mesh(3)
    c22 = np.broadcast_to(np.exp(0.3 * np.sin(2.0 * np.pi * x3 / grid.delta)), grid.shape).copy()
    c33 = u_wave_c33(u)
    return assemble_dataset(p, c22, c33)


def homogeneous_dataset(grid):
    """Exponents of u = U0 everywhere with the identity metric block."""
    p = exponents_from_u(grid, U0)
    c = np.zeros((6,) + grid.shape)
    c[:3] = 1.0  # the diagonal slots
    return AsymptoticDataSet(p, c)


def layered_dataset(grid):
    """Inhomogeneous data varying along x^1 only, with the exponents of U0.

    With k = 2 pi / delta: kappa_1^2 = 0.1 sin(k x^1), c22 = c33 = 1, and
    the x^3 = 0 slices c11 = exp(0.3 sin(k x^1)), kappa_2^3 = 0.2 cos(k x^1)
    and kappa_1^3 = 0.2 sin(2 k x^1).  Every transport right side vanishes
    pointwise (no x^2 or x^3 dependence, and the stencil is exactly zero on
    such fields), so the data satisfy the momentum constraint and are
    periodic with seam mismatch exactly 0.0, while the kappa slices keep
    every off-diagonal metric entry active.
    """
    p = exponents_from_u(grid, U0)
    k = 2.0 * np.pi / grid.delta
    x1_line = grid.axis_coords()
    col = np.ones((1, grid.n_pts))
    c11_slice = np.exp(0.3 * np.sin(k * x1_line))[:, None] * col
    kappa12 = np.broadcast_to(0.1 * np.sin(k * grid.mesh(1)), grid.shape).copy()
    k23_slice = 0.2 * np.cos(k * x1_line)[:, None] * col
    k13_slice = 0.2 * np.sin(2.0 * k * x1_line)[:, None] * col
    return assemble_dataset(
        p,
        c22=1.0,
        c33=1.0,
        kappa12=kappa12,
        c11_slice=c11_slice,
        kappa23_slice=k23_slice,
        kappa13_slice=k13_slice,
    )


def _trig_fields(grid, rng, amps):
    """Random trig polynomials of sup at most amp, one per amp in amps: of
    each pair +-k in {-2..2}^3 \\ {0} the mode with (k3, k2, k1) > 0
    lexicographically, 62 modes (k3 in {0, 1, 2}, a half plane at k3 = 0),
    each mode's cos and sin shared by the fields.  Coefficients are drawn
    field by field, then mode by mode; each field is divided by its
    coefficient l1 norm, summed in mode order, so the sup bound is exact."""
    band = range(-2, 3)
    modes = [(k1, k2, k3) for k1 in band for k2 in band for k3 in range(3) if (k3, k2, k1) > (0, 0, 0)]
    coords = [grid.mesh(ax) * (2.0 * np.pi / grid.delta) for ax in (1, 2, 3)]
    coef = rng.normal(size=(len(amps), len(modes), 2))
    out = np.zeros((len(amps),) + grid.shape)
    for m, (k1, k2, k3) in enumerate(modes):
        phase = k1 * coords[0] + k2 * coords[1] + k3 * coords[2]
        cos, sin = np.cos(phase), np.sin(phase)
        for field, (a, b) in zip(out, coef[:, m]):
            field += a * cos
            field += b * sin
    total = np.cumsum(np.abs(coef[..., 0]) + np.abs(coef[..., 1]), axis=1)[:, -1]
    return [amp * field / t for amp, field, t in zip(amps, out, total)]


def random_dataset(grid, seed):
    """Seeded random data: type identities hold, differential constraint does not.

    u - U0, log c_ii, then c_12, c_13, c_23 (not slot order) are _trig_fields
    of sup at most 0.25, 0.3 and 0.2, drawn in turn from the generator of seed.

    The tower does not run on these data.  At n=12, seed 3, on
    LogTimeGrid(1e-4, 1e-1, 41) it aborts in the level-1 k update: t^2 R[0]
    falls toward t = 0 (integrable, not a log divergence), but its head sits
    near the turning point of |t^2 R[0]|, which the two-node tail fit reads
    as flat.  With t_min = 1e-5 or 1e-8 the frame integrating factor
    exceeds its limit, and with 1e-6 the frame update has a flat head.
    """
    u, *fields = _trig_fields(grid, np.random.default_rng(seed), (0.25,) + (0.3,) * 3 + (0.2,) * 3)
    c = np.empty((6,) + grid.shape)
    for pair, field in zip(((0, 0), (1, 1), (2, 2), (0, 1), (0, 2), (1, 2)), fields):
        c[SLOTS.index(pair)] = np.exp(field) if pair[0] == pair[1] else field
    return AsymptoticDataSet(exponents_from_u(grid, U0 + u), c)
