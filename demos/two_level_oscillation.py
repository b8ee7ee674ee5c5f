"""Exact evolution of a mode-2 fermion at three modes per species, coupling 4.

Conservation of K and Q confines the dynamics to a two-dimensional sector
spanned by |010 000 00 00 00> and |100 000 01 00 00>, so the transition
probability is an exact two-level oscillation.  The script prints the sector
block, the closed-form check and where the peak actually lands.
"""

import numpy as np

from lfyukawa import (
    FockState,
    ModeConfig,
    ModelParams,
    QubitLayout,
    build_h,
    enumerate_sector,
    exact_evolve,
)
from lfyukawa.pauli import subspace_matrix

config = ModeConfig.uniform(3, 3)
layout = QubitLayout(config)
params = ModelParams(coupling=4.0)
h = build_h(config, params, layout)
print(f"register: {layout.total_qubits} qubits, Hamiltonian: {len(h)} Pauli strings")

states = enumerate_sector(config, 2, 1)
print("sector K=2, Q=1:", [layout.format_bits(layout.encode(s)) for s in states])

indices = [layout.encode(s) for s in states]
block = subspace_matrix(h, indices)
print("sector block:\n", np.round(block.real, 4))

v = block[0, 1].real
delta = (block[1, 1] - block[0, 0]).real
omega = np.hypot(v, delta / 2)
print(f"\ncoupling V = {v:.4f}, detuning = {delta:.4f}")
print(f"two-level prediction: peak {v**2 / omega**2:.4f} at t = {np.pi / 2 / omega:.4f}")

psi0 = layout.basis_vector(FockState((0, 1, 0), (0, 0, 0), (0, 0, 0)))
times = np.arange(0.0, 1.0, 0.01)
evolved = exact_evolve(h, psi0, times, sector=(2, 1), layout=layout)
transition = np.abs(evolved[:, 1]) ** 2
closed = (v**2 / omega**2) * np.sin(omega * times) ** 2
print(f"max |simulated - closed form| over the grid: {np.max(np.abs(transition - closed)):.2e}")

peak = int(np.argmax(transition))
print(f"simulated peak: {transition[peak]:.4f} at t = {times[peak]:.2f} (1/m_pi)")
for t in (0.0, 0.05, 0.095, 0.2, 0.285):
    i = int(round(t / 0.01))
    print(f"  P(t={times[i]:.3f}) = {transition[i]:.4f}")
