"""The one table of thresholds: every cut-off a decision of the package
compares with, each defined once here and imported where it is read.

Floating point cannot decide exactly whether two principal curvatures are
equal, whether the shape operator is diagonalizable or whether grad H
vanishes: each such decision is a comparison with an entry of this table.
The line above each entry reads ``# guards ...; scale ...; source ...``:
the quantity it tests; the scale it is relative to, which the entry
multiplies where it is read ("absolute" where it multiplies nothing, with
the reason); and where its value came from: a measurement, a rounding
bound, or "chosen".  Error bounds relative to the data's scale follow
Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., SIAM 2002.
Each entry is a plain constant, so an expression that reads it is, value
and order of operations, the one it was with the literal in its place.
"""

from __future__ import annotations

import numpy as np

_EPS = np.finfo(float).eps  # the spacing of doubles at 1.0

# -- the induced metric, the normal and the CMC decision (immersion) --------

# guards min |eigenvalue| of G, and |det G| against its n-th power; scale 1 + max|G|; source chosen
TAU_DEG = 1e-10
# guards <w, w> of the unnormalized normal w (lightlike or wrong-signed); scale |w|^2; source chosen
TAU_NORMAL = 1e-10
# guards |grad H| (ambient Euclidean norm) in the CMC decision; scale 1 + |H|; source chosen
TAU_CMC = 1e-8
# guards which normal components count as nonzero for its sign; scale the largest; source chosen
TAU_ORIENT = 1e-9
# guards |det G|, |w|^2 and Newton divisors as zero; scale absolute: underflow; source chosen
TAU_UNDERFLOW = 1e-300
# guards packet_fd's quotients (error h^2 + noise/h); scale absolute: O(1) domains; source chosen
FD_STEP = 5e-4

# -- expression values and their difference quotients (jets, expr) ---------

# guards |den| of a division, jets and arrays alike; scale absolute: O(1) values; source chosen
TAU_DIV = 1e-13
# guards the base of a fractional power or sqrt; scale absolute, as TAU_DIV; source chosen
TAU_POW = 1e-12
# Nested central differences, one axis at a time; each level is O(h^2)
# accurate.  Orders three and four add one Richardson pass over the whole
# stencil: a single step cannot keep both the truncation term (wants small h)
# and the eps/h^3 cancellation noise (wants large h) inside the cross-check
# tolerances at float64.
# guards expr.fd_partial's quotients, a step per order; scale absolute: O(1) domains; source chosen
FD_STEPS = {
    # guards nothing: order 0 is the value itself, taken with no step; scale none; source exact
    0: 0.0,
    # guards first differences; scale absolute, as FD_STEPS; source chosen
    1: 1e-4,
    # guards second differences; scale absolute, as FD_STEPS; source chosen
    2: 1e-4,
    # guards third differences (one Richardson pass); scale absolute, as FD_STEPS; source chosen
    3: 6e-3,
    # guards fourth differences (one Richardson pass); scale absolute, as FD_STEPS; source chosen
    4: 2e-2,
}

# -- ambient vectors and frames (ambient) ------------------------------------

# guards |<v, v>| in causal_character (lightlike at or below); scale |v|^2; source chosen
TAU_NULL = 1e-9
# guards a frame's largest cofactor (rank deficient at or below); scale Hadamard's; source chosen
TAU_RANK = 1e-12

# -- the shape operator's spectrum (spectral) --------------------------------

# guards root gaps, imaginary parts and pairing of S's spectrum; scale 1 + max|root|; source chosen
CLUSTER_TOL = 1e-6
# guards the refused band (tol, BAND_FACTOR tol] of gaps; scale tol (1 + max|root|); source chosen
BAND_FACTOR = 10.0
# The snap radius is wide enough to catch a defective triple splitting by
# (backward error)^(1/3); genuine structure swept in by the radius is
# rejected by the derivative test in _settle and falls back to single roots.
# guards which roots are tested as one multiple root; scale tol (1 + max|root|); source chosen
SNAP_FACTOR = 100.0
# guards the snap radius from below; scale 1 + max|root|; source chosen
SNAP_FLOOR = 2e-3
# guards _settle's Newton step (it stops below); scale 1 + |root|; source chosen, about 5 eps
NEWTON_STOP = 1e-15
# guards the polished root's shift from its group's mean; scale tol (1 + max|root|); source chosen
SETTLE_SHIFT = 10.0
# guards |p^(j)(root)|, zero at or below it; scale _poly_floor(p^(j), root); source chosen
ETA = 3e3 * _EPS
# guards p^(m) at an m-fold root, nonzero above it; scale ETA _poly_floor(p^(m)); source chosen
SHARP_FACTOR = 100.0
# guards max|G S - (G S)^T| in eigen_structure's contract; scale 1 + max|G S|; source chosen
SELF_ADJOINT_TOL = 1e-8
# True kernel directions sit at machine-eps singular values while a
# neighboring eigenvalue at distance d leaks sigma >= d^2 or so; a sqrt(eps)
# floor separates the two regimes far better than tol itself.
# guards singular values of S - lambda I, zero at or below it; scale 1 + max|S|; source chosen
RANK_FLOOR = np.sqrt(_EPS)
# guards the rank cut where RANK_FACTOR tol > RANK_FLOOR; scale 1 + max|S|; source chosen
RANK_FACTOR = 1e-2
# guards the rank certificate's rounding; scale |A|_F^k; source a bound, 3 eps >= gamma_5(eps/2)
ROUND = 3 * _EPS

# -- side conditions and family structure (catalog) --------------------------

# guards a profile pair's |phi'^2 +- psi'^2 -+ 1| over the samples; scale the 1; source chosen
PAIR_TOL = 1e-8
# guards strict side conditions (a != 0, a radius's sign, psi's); scale absolute: O(1); source chosen
STRICT_MARGIN = 1e-6
# guards the s-range's distance from a singular s = -offset; scale absolute: O(1) s; source chosen
OFFSET_SLACK = 1e-9
# guards which real root counts as a zero curvature; scale 1 + max|k|; source chosen
ZERO_ROOT_TOL = 1e-7
# guards |<x', x'> -+ 1| of a unit-speed curve; scale the 1; source chosen
SPEED_TOL = 1e-9
# guards max|h| of a plane family; scale absolute: h is 0 exactly; source chosen
PLANE_TOL = 1e-9
# guards max|h| of a line family; scale absolute: h is 0 exactly; source chosen
LINE_TOL = 1e-10
# guards |<x, x> - c r^2| of a quadric family; scale 1 + r^2; source chosen
QUADRIC_TOL = 1e-8
# guards max|h - G H| of an umbilic family; scale absolute: h - G H is 0 exactly; source chosen
UMBILIC_TOL = 1e-8
# guards <a, a> and |h_12| of a parabolic family; scale absolute: both are 0 exactly; source chosen
PARABOLIC_TOL = 1e-9
# guards |<a, a> - c R^2| of an accel family; scale 1 + R^2; source chosen
ACCEL_TOL = 1e-8
# guards |<a, a>| of a lightlike-accel family; scale absolute: it is 0 exactly; source chosen
NULL_ACCEL_TOL = 1e-9
# guards |a| of a lightlike-accel family, nonzero above it; scale absolute; source chosen
ACCEL_MIN = 1e-6

# -- profile functions (profiles) --------------------------------------------

# guards |s + offset| in the torsion equation's residual; scale absolute: O(1) s; source chosen
POLE_TOL = 1e-8
# guards an argument's distance to an interpolation node (a hit); scale 1 + |x|; source chosen
NODE_HIT = 1e-14
# guards a profile argument past its interval [lo, hi]; scale absolute: O(1) s; source chosen
RANGE_SLACK = 1e-12
# guards |2 psi' - 1|, the torsion equation's denominator; scale absolute: O(1); source chosen
PSI_DEN_TOL = 1e-10
# guards |central difference - derivs' first derivative| of a profile; scale absolute; source chosen
DERIV_TOL = 1e-6
# guards that check's central difference, its step h; scale hi - lo of the range; source chosen
DERIV_STEP = 1e-5

# -- sweeps (sweep, cli) ------------------------------------------------------

# no principal_direction entry: that row, the tangency defect over |grad H| and never below
# biconservative, is held to biconservative's tolerance, so the pair fails where it fails.
# guards each verify check's residual (its --tol-<check> default); scale per key; source chosen
DEFAULT_TOLERANCES = {
    # guards |S grad H + (n/2) H grad H| in ambient space; scale max(1, |grad H|); source chosen
    "biconservative": 1e-6,
    # guards |lap x - n H N|; scale absolute: the chart's partials are O(1); source chosen
    "beltrami": 1e-7,
    # guards the Gauss row's max defect; scale (1 + max|h|)^2; source chosen
    "gauss": 1e-6,
    # guards the Codazzi row's max defect; scale (1 + max|h|)^2; source chosen
    "codazzi": 1e-6,
    # guards |<N, N> - 1|; scale the 1 it compares with; source chosen
    "unit_normal": 1e-9,
}
# guards the tangency row on the fd oracle's route; scale max(1, |grad H|), |grad H|; source chosen
FD_TANGENCY_TOL = 1e-4
# guards max|Im| of S's eigenvalues for "all real" (n != 4); scale 1 + max|root|; source chosen
ROOTS_REAL_TOL = 1e-9
# guards a grid axis's bounds past the chart's domain; scale absolute: O(1) domains; source chosen
GRID_SLACK = 1e-12
