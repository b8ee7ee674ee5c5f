"""First-order Trotter against exact evolution on the two-level system.

The plan orders rotations diagonal-first, then grouped by flip pattern.  A
side effect of that grouping is that every step conserves K and Q exactly (the
strings sharing one flip pattern compose to the corresponding full matrix
element, which vanishes whenever a transition would violate a charge), so the
algorithmic error lives entirely inside the allowed sector.
"""

from lfyukawa import (
    FockState,
    ModeConfig,
    ModelParams,
    QubitLayout,
    build_h,
    exact_evolve,
    leakage,
    make_plan,
    plan_cost,
    sector_indices,
    trotter_evolve,
)

config = ModeConfig.uniform(3, 3)
layout = QubitLayout(config)
h = build_h(config, ModelParams(coupling=4.0), layout)
state0 = FockState((0, 1, 0), (0, 0, 0), (0, 0, 0))
psi0 = layout.basis_vector(state0)
indices = sector_indices(config, 2, 1)

t = 0.2
exact = exact_evolve(h, psi0[indices], t, indices)
p_exact = abs(exact[1]) ** 2  # position 1 of the sector basis
print(f"exact transition probability at t = {t}: {p_exact:.6f}")

print("\n n_T   P(target)   |dev|       leak_K      leak_Q")
for n_steps in range(1, 11):
    psi = trotter_evolve(make_plan(h, t, n_steps), psi0)
    p = abs(psi[indices[1]]) ** 2
    leak_k, leak_q = leakage(psi, 2, 1, layout)
    print(f"  {n_steps:2d}   {p:.6f}   {abs(p - p_exact):.2e}   {leak_k:.2e}   {leak_q:.2e}")

c1 = plan_cost(make_plan(h, t, 10, order=1))
c2 = plan_cost(make_plan(h, t, 10, order=2))
print(f"\nrotations for 10 steps: order 1 = {c1.rotations_total}, order 2 = {c2.rotations_total}"
      f"  (ratio {c2.rotations_total / c1.rotations_total:.3f})")
