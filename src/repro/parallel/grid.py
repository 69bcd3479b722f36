"""Grid expansion and deterministic chunk planning.

``expand_grid`` fixes the *canonical cell order* of a parameter grid:
the ``itertools.product`` order over the grid's key order — the order
:func:`repro.parallel.run_sweep` merges rows in.
Everything else in :mod:`repro.parallel` (seed derivation, result
merging, failure reporting) is indexed against this order, which is why
parallel output can be bit-identical to serial output.

``plan_chunks`` shards ``n_cells`` into contiguous, balanced ranges.
The plan is a pure function of its arguments — no RNG, no
load-feedback — so a given ``(n_cells, n_chunks)`` always produces the
same shards.  Chunk *assignment to workers* is still up to the OS
scheduler, but since results are merged by cell index that choice can
never affect the output.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Sequence, Tuple

__all__ = ["expand_grid", "plan_chunks", "chunk_count"]


def expand_grid(
        grid: Mapping[str, Sequence[Any]],
) -> Tuple[List[str], List[Dict[str, Any]]]:
    """Expand a parameter grid into (names, cells in canonical order).

    Raises ``ValueError`` on an empty grid or an empty value list.
    """
    if not grid:
        raise ValueError("empty parameter grid")
    names = list(grid)
    for n, values in grid.items():
        if not len(values):
            raise ValueError(f"parameter {n!r} has no values")
    cells = [dict(zip(names, combo))
             for combo in itertools.product(*(grid[n] for n in names))]
    return names, cells


def chunk_count(n_cells: int, workers: int) -> int:
    """How many chunks to shard ``n_cells`` into.

    Aim for ~4 chunks per worker so a slow cell cannot straggle a whole
    worker's share of the grid, capped at one cell per chunk.
    """
    if n_cells <= 0:
        return 0
    return min(n_cells, max(1, workers) * 4)


def plan_chunks(n_cells: int, n_chunks: int) -> List[range]:
    """Shard ``range(n_cells)`` into ``n_chunks`` contiguous ranges.

    Every index appears in exactly one range; range lengths differ by
    at most one (longer ranges first); the plan is deterministic.
    """
    if n_cells < 0:
        raise ValueError(f"n_cells must be >= 0, got {n_cells}")
    if n_cells == 0:
        return []
    if n_chunks < 1:
        raise ValueError(f"n_chunks must be >= 1, got {n_chunks}")
    n_chunks = min(n_chunks, n_cells)
    base, extra = divmod(n_cells, n_chunks)
    plan: List[range] = []
    start = 0
    for i in range(n_chunks):
        size = base + (1 if i < extra else 0)
        plan.append(range(start, start + size))
        start += size
    return plan
