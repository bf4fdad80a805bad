"""Where does global existence end?

Brackets the threshold amplitude by bisection: below it the two-mode
trajectory settles, above it the tube radius passes 1, after which
R' >= R^2 - R > 0 drives it to escape in finite time. The norm-based sufficient condition gives sqrt(2)/2 = 0.707,
so anything the computation certifies above that is new information.
"""

import math

from evocontrol import heat

for A in (0.9, 1.0, 1.1, 1.2):
    result = heat.run_scenario(heat.HeatScenario(A=A))
    print(f"A = {A:4.2f}: {result.outcome_kind:16s} t_G = {result.t_g:.4g}")

print()
value = heat.critical_amplitude()
print(f"bisected threshold: {value:.4f} +/- 0.0002")
print(f"norm-only threshold: {math.sqrt(2.0) / 2.0:.5f}")
print(f"improvement factor: {value / (math.sqrt(2.0) / 2.0):.3f}")
