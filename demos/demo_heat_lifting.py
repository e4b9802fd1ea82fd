"""Lifting a boundary bump into the wedge through the heat flow.

The lift H(x', x'') = w(|x'|^2, x'') obeys a clean chain-rule identity
tying its Laplacian to time derivatives of the heat solution, verified
here at second order, and never overshoots the boundary data.
"""

from wedgecap.experiments import heat_lifting

lift, rep = heat_lifting(R=4.0)
m = rep.metrics
print("maximum-principle overshoot : %.2e" % m["overshoot"])
print("initial trace error         : %.2e" % m["initial_trace_error"])
print("identity residuals          :", ["%.3e" % r for r in m["identity_residuals"]])
print("identity convergence orders :", ["%.3f" % o for o in m["identity_orders"]])
print("gradient-functional spread  : %.3f" % m["gradient_ratio_spread"])
print("zeta domination sup-ratios  :", ["%.2f" % v for v in m["zeta_sup_ratios"]])
print("passed:", rep.passed)
