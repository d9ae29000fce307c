"""Fixed work that shares nothing with the program, timed to gauge host speed.

    python3 perfbench/yardstick.py

Prints {"yardstick_s": [t1, t2, t3]}: three timings of small and medium FFTs,
complex exponentials and an interpreter loop, about 0.2 s each on a
2.1 GHz Xeon.  The benchmark runs it in a process of its own between
repetitions, so it neither sees nor changes a repetition's memory, and the
program cannot move it: on a shared host its time follows the host's speed,
which drifts by tens of per cent over minutes.
"""

from __future__ import annotations

import json
import time

import numpy as np


def measure():
    rng = np.random.default_rng(0)
    small = rng.standard_normal((2, 64, 64))
    wide = rng.standard_normal((256, 128))
    start = time.perf_counter()
    for _ in range(120):
        np.fft.irfft2(np.fft.rfft2(small), s=(64, 64))
        np.fft.irfft(np.fft.rfft(wide, axis=-1) * np.exp(1j * wide[:, :65]), n=128, axis=-1)
    total = 0
    for i in range(600_000):
        total += i % 7
    return time.perf_counter() - start


if __name__ == "__main__":
    print(json.dumps({"yardstick_s": [measure() for _ in range(3)]}))
