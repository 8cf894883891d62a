"""A combined problem whose supremum is approached but never reached.

Combined problems add a second PSD block and free variables to the packing
form.  Feasibility of both sides no longer guarantees an optimal solution:
this 2x2 instance has value 31/10, a unique dual point, and feasible
sequences climbing to the value with norms going to infinity.  The
trace-cap path (cap * (tr X + tr Y) <= 1 for a shrinking cap) produces
exactly such a sequence, each iterate shorted to rank one, and flags the
supremum as asymptotic.
"""

import numpy as np

from sdpack.model import parse_problem
from sdpack.solve import solve_combined_dual, solve_combined_eta

c = (np.sqrt(3) / 10.0) * np.array([9.0, 1.0])
doc = {
    "kind": "combined",
    "C": [[float(v) for v in row] for row in np.outer(c, c)],
    "constraints": [
        {"M": [[0.0, 0.0], [0.0, 0.0]], "b": 1.0},   # 0 <= 1 + lam_1
        {"M": [[1.0, 0.0], [0.0, 0.0]], "b": 1.0},   # X_11 <= 1 + lam_2
        {"M": [[0.0, 0.0], [0.0, 1.0]], "b": 1.0},   # X_22 <= 1 + 3 lam_1 + lam_2
    ],
    "h0": [-1.0, -3.0],
    "H": [[1.0, 0.0, 3.0], [0.0, 1.0, 1.0]],
}
cmb = parse_problem(doc)

# the unique dual point prices the problem at 31/10
mu, value = solve_combined_dual(cmb)
print("dual multipliers:", np.round(mu, 6), " value:", round(value, 8))

# an explicit feasible sequence approaching the value
for k in (10.0, 1e3, 1e6):
    x = np.array([np.sqrt(3.0 + k), np.sqrt(k)])
    lam = np.array([-1.0, k + 2.0])
    val = x @ cmb.C @ x + cmb.h0 @ lam
    print(f"   explicit point at k={k:>9g}: value {val:.8f}, |x|^2 = {x @ x:.1f}")

# the trace-cap path finds the same escape route on its own
sol = solve_combined_eta(cmb)
print("\ntrace-cap path values:")
for g, r in zip(sol.gamma, sol.ranks):
    print(f"   {g:.8f}   (iterate rank {r})")
print("status:", sol.status.value)
print("final free variables:", np.round(sol.lam, 3),
      "  (escaping to infinity)")
