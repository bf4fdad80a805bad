"""The scalar control equation has a closed form for pure-power growth;
this script integrates it numerically anyway and prints the agreement.

Also shows the three regimes: subcritical data relax, critical data sit
on the unstable equilibrium, supercritical data reach the finite
lifespan t_N.
"""

import math

import numpy as np

from evocontrol import control, ode


def run(U, B, P, p, f0, label):
    tn = control.tn_closed(U, B, P, p, f0)
    window = 2.0 if math.isinf(tn) else 0.9 * tn
    outcome = ode.integrate(control.pure_power_ivp(U, B, P, p, f0, window))
    worst = 0.0
    for t in np.linspace(0.0, window, 25)[1:]:
        got = float(outcome.interpolate(float(t))[0])
        exact = control.r_closed(U, B, P, p, f0, float(t))
        worst = max(worst, abs(got - exact) / exact)
    tn_text = "inf" if math.isinf(tn) else f"{tn:.4f}"
    print(
        f"{label:12s} t_N = {tn_text:>8s}  window {window:6.3f}  "
        f"worst rel dev {worst:.2e}"
    )


# U=1.2, B=1, p=2, |f0|=0.5: threshold coupling is B/(U^p |f0|) = 1.389
run(1.2, 1.0, 0.5, 2, 0.5, "subcritical")
run(1.2, 1.0, 1.0 / (1.2**2 * 0.5), 2, 0.5, "critical")
run(1.2, 1.0, 3.0, 2, 0.5, "supercritical")
run(1.5, 0.8, 0.7, 3, 0.9, "cubic")
