"""Grid expansion: the canonical cell order of a sweep.

``expand_grid`` fixes the *canonical cell order* of a parameter grid:
the ``itertools.product`` order over the grid's key order — the order
:func:`repro.parallel.run_sweep` merges rows in.
Everything else in :mod:`repro.parallel` (seed derivation, result
merging, failure reporting) is indexed against this order, which is why
parallel output can be bit-identical to serial output: which worker
runs a cell is up to the OS scheduler, but since results are merged by
cell index that choice can never affect the output.
"""

from __future__ import annotations

import itertools
from typing import Any, Dict, List, Mapping, Sequence, Tuple

__all__ = ["expand_grid"]


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
