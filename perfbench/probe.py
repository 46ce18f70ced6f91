"""One set-up, timed by the parent from process start to the "ready" line.

    python3 perfbench/probe.py WORKLOAD INPUT_DIR

Does what a fresh process must do before its first operation: import
birdnet and, for serve-explain, load the model file and run a first
forward. Imports only what that needs.
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))


def setup(workload: str, inputs: str) -> None:
    if workload == "mine-wide":
        import birdnet.cli  # noqa: F401
    elif workload == "cv-train":
        import birdnet.evaluate  # noqa: F401
    else:
        import numpy as np

        from birdnet import dataio, explain, network, trainer  # noqa: F401

        net = network.load_network(os.path.join(inputs, "model.json"))
        s = net.meta["standardizer"]
        std = dataio.Standardizer(
            np.asarray(s["means"]), np.asarray(s["stddevs"]), np.asarray(s["constant"], dtype=bool)
        )
        row = np.load(os.path.join(inputs, "requests.npz"))["rows"][:1]
        net.forward(dataio.apply_standardizer(std, row), mode="eval")


if __name__ == "__main__":
    setup(sys.argv[1], sys.argv[2])
    print("ready", flush=True)
