"""kasnerlab: a numerical laboratory for Kasner-like vacuum singularities.

Two pillars:
  - asymptotic data on the singularity: exponent fields p_i(x) with
    sum p_i = sum p_i^2 = 1 plus metric coefficients c_ij satisfying a
    differential momentum constraint, generated by transport solves;
  - an iteration scheme producing approximate solutions (frame, coframe,
    second fundamental form) with verifiable decay rates as t -> 0, checked
    by the geometric constraint and spacetime-Ricci residuals of geometry.py.
"""

__version__ = "0.1.0"
