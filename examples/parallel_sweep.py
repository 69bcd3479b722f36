#!/usr/bin/env python3
"""Parallel parameter sweeps with serial-parity guarantees.

Walks the `repro.parallel` executor through its whole surface: a grid
run serially and in a process pool (identical rows, by contract),
index-keyed per-cell seeds that no worker count can disturb, graceful
failure capture, and the named sweeps behind `repro sweep`.

Run:  python examples/parallel_sweep.py
"""

from repro.parallel import derive_seed, run_registered, run_sweep
from repro.parallel.scenarios import footprint_cell


def noisy_cell(x, seed=0):
    """A 'stochastic' cell: its noise comes only from the injected,
    index-derived seed — never from global RNG state."""
    import numpy as np
    rng = np.random.default_rng(seed)
    return {"y": (x - 2.0) ** 2 + rng.normal(scale=0.1)}


def brittle_cell(x):
    if x == 3.0:
        raise ValueError("this cell models a crashed simulation")
    return {"y": x * x}


def main() -> None:
    # --- 1. the parity contract -------------------------------------
    grid = {"intensity_g_per_kwh": [20.0, 300.0, 1025.0],
            "lifetime_years": [4.0, 6.0, 8.0]}
    serial = run_sweep(footprint_cell, grid, workers=1)
    parallel = run_sweep(footprint_cell, grid, workers=4)
    print("9-cell footprint grid, serial vs workers=4:")
    print(f"  rows identical: {parallel.rows == serial.rows}  "
          f"(mode: {parallel.stats.mode})")

    # --- 2. per-cell seeds keyed on grid position --------------------
    # derive_seed(base, index) is a pure function of the cell's
    # canonical position, so stochastic scenarios stay reproducible
    # at any worker count.
    g = {"x": [0.0, 1.0, 2.0, 3.0]}
    one = run_sweep(noisy_cell, g, workers=1, base_seed=42)
    four = run_sweep(noisy_cell, g, workers=4, base_seed=42)
    print("\nseeded stochastic grid:")
    print(f"  workers=1 vs workers=4 identical: {four.rows == one.rows}")
    print(f"  cell 2 saw seed {derive_seed(42, 2)}")

    # --- 3. failure capture without killing the sweep ----------------
    r = run_sweep(brittle_cell, {"x": [1.0, 2.0, 3.0, 4.0]},
                  workers=2, strict=False)
    print("\nbrittle grid (non-strict):")
    print(f"  {len(r.rows)} cells succeeded, {len(r.failures)} failed")
    for f in r.failures:
        print(f"  FAILED {f.describe()}")

    # --- 4. named sweeps (what `repro sweep` runs) -------------------
    result = run_registered("footprint", workers=2,
                            grid_overrides={"lifetime_years": [6.0]})
    print("\nregistered 'footprint' sweep, lifetime pinned to 6 y:")
    print(result.render())


if __name__ == "__main__":
    main()
