"""Fixed reference task whose run time measures the host's current speed.

    python3 perfbench/reference.py

The benchmark runs it in a fresh interpreter between the program's
commands and divides the program's times by its median time, so that a
host that runs everything slower for a few minutes does not read as a
slower program. Its work is a small mix of what the CLI commands do:
start an interpreter and import numpy, parse and write JSON, run a pure
Python loop over dicts, and run numpy element-wise kernels. It reads no
input and depends on no seed; it prints one checksum line.
"""

from __future__ import annotations

import json

import numpy as np


def main() -> None:
    rng = np.random.Generator(np.random.PCG64(0))
    table = {f"x{i}": {f"d{j}": float(v) for j, v in enumerate(row)}
             for i, row in enumerate(np.round(rng.random((8000, 4)), 6))}
    table = json.loads(json.dumps(table))

    sums: dict[str, float] = {}
    for _ in range(2):
        for x, row in table.items():
            for y, v in row.items():
                sums[y] = sums.get(y, 0.0) + v * (1.0 - v)

    a = rng.random((1000, 1000))
    b = rng.random((1000, 1000))
    for _ in range(4):
        a = np.abs(a - b.mean(axis=0)) + np.minimum(a, b) * 0.5
    print(f"{sum(sums.values()):.6f} {float(a.sum()):.6f}")


if __name__ == "__main__":
    main()
