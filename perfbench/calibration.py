"""The fixed calibration task that scales measured times to reference seconds.

The machine's speed drifts: the same op runs up to 1.4 times faster for
minutes at a time, as the load on the host changes, and so a plain time
reads differently on every run. A time t measured next to a calibration
that took c seconds is reported as t * CAL_REF_S / c reference seconds:
its time on a machine that runs the task in CAL_REF_S.

This module imports only numpy, so that a fresh interpreter can time its
own calibration right after the import it measures.
"""

import time

import numpy as np

CAL_REF_S = 0.01  # a round reference; the task takes 9-15 ms on 2 GHz Xeon KVM vCPUs


def calibrate() -> float:
    """Seconds the fixed calibration task takes now. It mixes what the
    workloads spend their time on: Python dicts and tuples, small numpy
    calls and a pass over a 65,536-element array."""
    t0 = time.perf_counter()
    small = np.arange(256.0)
    big = np.random.default_rng(0).random(65536)
    for i in range(400):
        cells = {(j, i): j * i for j in range(40)}
        np.add.reduce(small[: 16 + i % 200]) + len(cells)
        np.unique(small[: 8 + i % 50])
    np.sort(big)
    np.bincount((big * 1000).astype(np.int64))
    return time.perf_counter() - t0
