"""Regenerate the reference CSVs that the default-seed output check uses.

    python3 bench/make_reference.py [WORKLOAD...]

Writes bench/reference/<workload>/<sim seed>.csv for every simulation seed
of a default-seed run (all workloads when none is named).  Run it only when
a change sets out to alter the results, and say so in that change.
"""

import sys

from run import BENCH, DEFAULT_SEED, ROOT, SEEDS_PER_RUN, WORKLOADS, reference_path, sim_seed

sys.path.insert(0, str(ROOT / "src"))
from fddlink.cli import main  # noqa: E402

for workload in sys.argv[1:] or WORKLOADS:
    for j in range(SEEDS_PER_RUN):
        seed = sim_seed(DEFAULT_SEED, j)
        out = reference_path(workload, seed)
        out.parent.mkdir(parents=True, exist_ok=True)
        code = main(["sim", WORKLOADS[workload],
                     "--config", str(BENCH / "workloads" / f"{workload}.cfg"),
                     "--out", str(out), "--seed", str(seed)])
        if code != 0:
            sys.exit(code)
