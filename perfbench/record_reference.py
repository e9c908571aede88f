"""Write perfbench/reference.json, the outputs every benchmark pass must match.

    python3 perfbench/record_reference.py

Re-record only with a change that is meant to alter mhdlab's outputs, and say
so in that change: the benchmark's correctness gates compare against this file.
"""

import json
import os
import sys
import tempfile
from pathlib import Path

from run import ROOT, THREAD_VARS, THREADS, WORKLOADS

# pin threads as the benchmark does, before workload imports numpy
os.environ.update({v: str(THREADS) for v in THREAD_VARS})
sys.path.insert(0, str(ROOT / "src"))

import workload  # noqa: E402


def main() -> int:
    scratch = ROOT / ".perfbench"
    scratch.mkdir(exist_ok=True)
    reference = {}
    for name in WORKLOADS:
        # full before tiny: the tiny verify inputs trim verify.CLAIMS in place
        for size in ("full", "tiny"):
            inputs = workload.make_inputs(name, size, seed=0)
            with tempfile.TemporaryDirectory(dir=scratch) as out:
                workload.run_api(name, inputs, Path(out))
                reference.setdefault(name, {})[size] = workload.extract(name, Path(out))
            print(f"recorded {name} {size}", file=sys.stderr)
    workload.REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
