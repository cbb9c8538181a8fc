"""Write reference.json: logit fingerprints of the T preset at 224x224.

    PYTHONPATH=src python3 perfbench/make_reference.py

For each of the seeds 0 to 63 it builds the model and input exactly as the
t224 workloads do and stores the first eight logits and their sum. Rerun
only when a change to the package is meant to change the forward pass beyond
summation order.
"""

import json
import os

from worker import HERE, logit_fingerprint, t224_inputs, wavemlp

SEEDS = 64


def main() -> None:
    table = {}
    for seed in range(SEEDS):
        model, images, _label = t224_inputs(seed)
        table[str(seed)] = logit_fingerprint(wavemlp("model").forward(model, images).data)
    with open(os.path.join(HERE, "reference.json"), "w") as fh:
        json.dump({"t224_logits": table}, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main()
