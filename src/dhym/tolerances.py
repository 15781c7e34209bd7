"""The solver's six numerical tolerances, fixed for every instance.

A verdict depends on (n, a, p, q) alone.  These constants are deadbands
and error budgets, not options: knife-edge inputs fall inside a deadband
and degrade to an explicit "inconclusive" instead of flipping a boolean.
The budgets are scale-relative where magnitudes grow like
max(|1+iq|, |a+ip|)**n.
"""

# zeta / level-value deadband, relative to max(|z1|**n, |z2|**n)
EPS_ZERO = 1e-9
# angular deadband (radians) for on-ray / sector-boundary classification;
# the rays of the top fan are pi/n apart, so it must stay below pi/(2n)
EPS_ANGLE = 1e-8
# level adherence |Phi - c| at every traced node, relative to its scale
TOL_LEVEL = 1e-10
# endpoint error budget, relative to max(1, |p|), and ODE residual budget
# at every node z_j = x_j + i f_j, relative to 1 + |z_j / x_j|**(n-1)
TOL_ENDPOINT = 1e-6
# pointwise-angle oscillation budget along an accepted curve (radians)
TOL_ANGLE = 1e-6
# number of samples in an emitted solution curve
CURVE_SAMPLES = 257
