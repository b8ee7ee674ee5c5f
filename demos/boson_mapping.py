"""How one bosonic mode with m modals becomes Pauli strings on log2(m+1) qubits.

The occupancy is stored in big-endian binary, so the creation operator is a
binary incrementer weighted by sqrt(occupancy+1).  For m = 7 it expands into
seven words over {sigma+, sigma-, I+, I-}; expanding those into Pauli letters
and combining gives the canonical string sum used everywhere else.
"""

import numpy as np

from lfyukawa import ModeConfig, QubitLayout, boson_ladder, subspace_matrix
from lfyukawa.pauli import boson_occupancy_raisers, dumps

layout = QubitLayout(ModeConfig(1, 1, 1, (7,)))

print("sigma/projector words for the m = 7 creation operator:")
for coeff, word in boson_occupancy_raisers(7):
    pretty = " ".join({"I+": "I+", "I-": "I-", "s+": "s+", "s-": "s-"}[w] for w in word)
    print(f"  sqrt({coeff**2:.0f}) * {pretty}")

ad = boson_ladder(1, True, layout)
print(f"\nas a canonical Pauli sum on the 5-qubit register: {len(ad)} strings")
print(dumps(ad)[:400] + "\n...")

dim = 8
# the matrix on the whole register: every basis index is in the span
full = subspace_matrix(ad, np.arange(1 << layout.total_qubits))
block = full[:dim, :dim].real
print("\nmatrix elements <l+1| a_dagger |l> (should be sqrt(l+1), zero elsewhere):")
for level in range(7):
    print(f"  l={level}: {block[level + 1, level]:.6f}  (sqrt = {np.sqrt(level + 1):.6f})")
print(f"\naction on the full mode |7>: column norm = {np.linalg.norm(full[:, 7]):.1e}"
      "  (truncation: creating on a full mode gives zero)")
