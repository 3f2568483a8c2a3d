"""Records the final training loss of every training-input variant into
reference.json. From the root of a checkout:

    PYTHONPATH=src python3 perfbench/record_reference.py

Run it only when a change is meant to alter training numerics, and say so in
that change: the benchmark fails any training round whose final loss moves
further than ``rel_tolerance`` from these values.
"""

import json
import shutil
from pathlib import Path

from workloads import REFERENCE_PATH, TRAIN_VARIANTS, WORKLOADS


def main() -> None:
    ref = json.loads(REFERENCE_PATH.read_text())
    work = Path(__file__).resolve().parent / ".work" / "reference"
    for name in ("train_paper", "train_drill"):
        wl = WORKLOADS[name]
        ref[name] = {}
        for variant in range(TRAIN_VARIANTS):
            shutil.rmtree(work, ignore_errors=True)
            wl.prepare(work, variant)
            _, _, rows = wl.top_call(work, variant, work / "run")()
            ref[name][str(variant)] = rows[-1][5]
            print(name, variant, rows[-1][5], flush=True)
    shutil.rmtree(work, ignore_errors=True)
    REFERENCE_PATH.write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
