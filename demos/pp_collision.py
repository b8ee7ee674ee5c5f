"""Two protons in modes 4+5 producing a pion pair (20 qubits, K = 9 sector).

The full run Trotterizes 80 steps of 0.005 over a 14k-string Hamiltonian and
takes about a minute; pass --quick to stop at t = 0.1.  The transition
probability tracks any state with two fermions and two boson quanta in the
same (K, Q) sector, which is how pair-production yields would feed a cross
section estimate.
"""

import json
import sys
import time

from lfyukawa import parse_config, run_scenario

quick = "--quick" in sys.argv
doc = {
    "scenario": "pp-collision",
    "output_dir": "runs/demo-pp-collision",
}
if quick:
    doc["evolution"] = {"mode": "trotter", "t_max": 0.1, "dt": 0.005, "order": 1}

start = time.time()
records, _, manifest, files = run_scenario(parse_config(json.dumps(doc)))
print(f"{len(records)} steps in {(time.time() - start) / 60:.1f} min "
      f"({manifest['qubits']} qubits, {manifest['hamiltonian_term_counts'][0]} strings, "
      f"{manifest['n_targets']} target states)")

print("\n  t      survival  two-pion   leak_K     leak_Q")
for rec in records:
    if round(rec.time * 200) % 10 == 0:  # print every 0.05
        print(
            f"  {rec.time:.3f}  {rec.survival:.4f}    {rec.transition:.4f}    "
            f"{rec.leak_k:.2e}  {rec.leak_q:.2e}"
        )
print("\nfiles:", files)
