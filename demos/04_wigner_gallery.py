"""Phase-space portraits along the protocol.

Writes Wigner grids (plain CSV matrices, one row per q value) for the
binomial input, the grid-state target, and the two-iteration output with
central post-selection, plus their position densities. Point any plotting
tool at the files.
"""

import numpy as np

from qpbreed import FockConfig, Schedule, default_input, default_target, run_chain, wigner
from qpbreed.metrics import default_grid, position_density

cfg = FockConfig()
axis = default_grid()

states = {
    "binomial_input": default_input(cfg),
    "qunaught_target": default_target(cfg),
    "two_iteration_output": run_chain(
        cfg, Schedule.from_string("qp"), [24, 24], target=default_target(cfg)
    ).state,
}

for name, state in states.items():
    grid = wigner(state, axis, axis)
    np.savetxt(f"wigner_{name}.csv", grid, delimiter=",")
    np.savetxt(
        f"position_density_{name}.csv",
        np.column_stack([axis, position_density(state, axis)]),
        delimiter=",",
    )
    integral = np.trapezoid(np.trapezoid(grid, axis, axis=1), axis)
    print(f"{name}: wigner integral {integral:.4f}, "
          f"W(0,0) = {grid[100, 100]:+.4f} "
          f"-> wigner_{name}.csv, position_density_{name}.csv")

print("\nlook for the comb: the output's position density shows peaks "
      "sqrt(2 pi) apart, the signature spacing of a qunaught grid state")
