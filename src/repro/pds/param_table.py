"""Optimal IBLT parameter tables and the lookup the protocols use.

Algorithm 1 is a Monte-Carlo search; running it inline every time a
protocol needs an IBLT would dominate runtime.  Like the paper's released
implementation, we run the search once per target decode rate over a grid
of ``j`` values and ship the results as CSV files
(``src/repro/pds/data/iblt_params_<denom>.csv`` for failure rate
``1/denom``).  "For any given rate, the parameter file can be generated
once ever and be universally applicable to any IBLT implementation."

Lookups are conservative in two ways:

* a request between grid points uses the next *larger* grid entry, whose
  certified decode rate at a smaller item count is at least as good
  (decode success is monotone non-increasing in items for fixed shape);
* a request beyond the table extrapolates with the largest entry's hedge
  factor plus a safety margin.
"""

from __future__ import annotations

import csv
import math
from bisect import bisect_left
from dataclasses import dataclass
from importlib import resources
from pathlib import Path
from typing import Optional

from repro.errors import ParameterError

#: Decode failure rates the paper evaluates (Fig. 7): 1/24, 1/240, 1/2400.
SUPPORTED_DENOMS = (24, 240, 2400)

#: Default target: beta = 239/240, like every experiment in the paper.
DEFAULT_DENOM = 240

_EXTRAPOLATION_MARGIN = 1.05


@dataclass(frozen=True)
class IBLTParams:
    """Shape of one IBLT: total cells and hash-function count."""

    cells: int
    k: int


class IBLTParamTable:
    """Maps a symmetric-difference size ``j`` to an optimal IBLT shape."""

    def __init__(self, rows: list[tuple[int, int, int]], denom: int):
        """``rows`` are ``(j, k, cells)`` triples sorted by ``j``."""
        if not rows:
            raise ParameterError("parameter table must not be empty")
        self.denom = denom
        self.rows = sorted(rows)
        self._row_js = [row_j for row_j, _, _ in self.rows]
        self._max_j, max_k, max_cells = self.rows[-1]
        self._tail_tau = max_cells / self._max_j
        self._tail_k = max_k

    @classmethod
    def from_csv(cls, path, denom: int) -> "IBLTParamTable":
        rows = []
        with open(path, newline="") as handle:
            for record in csv.DictReader(handle):
                rows.append((int(record["j"]), int(record["k"]),
                             int(record["cells"])))
        return cls(rows, denom)

    def params_for(self, j: int) -> IBLTParams:
        """Return a shape certified to decode ``j`` items at the table's rate."""
        if j < 0:
            raise ParameterError(f"j must be non-negative, got {j}")
        if j == 0:
            # Clamp to the smallest certified row.  Returning a k-cell,
            # width-1 table here under-allocates: an estimate of zero
            # still has to absorb the beta-probability event that the
            # difference was not zero, and the j=1 row is the smallest
            # shape the Monte-Carlo search certified for *any* load.
            row_j, k, cells = self.rows[0]
            return IBLTParams(cells=cells, k=k)
        if j <= self._max_j:
            # The first row certified for at least ``j`` items.
            _, k, cells = self.rows[bisect_left(self._row_js, j)]
            return IBLTParams(cells=cells, k=k)
        k = self._tail_k
        cells = math.ceil(j * self._tail_tau * _EXTRAPOLATION_MARGIN)
        cells += -cells % k
        return IBLTParams(cells=cells, k=k)

    def tau_for(self, j: int) -> float:
        """Hedge factor ``tau`` (cells per item) for a difference of ``j``."""
        params = self.params_for(max(j, 1))
        return params.cells / max(j, 1)

    def __len__(self) -> int:
        return len(self.rows)

    def __repr__(self) -> str:
        return (f"IBLTParamTable(denom={self.denom}, entries={len(self.rows)}, "
                f"max_j={self._max_j})")


_CACHE: dict = {}


def _data_path(denom: int) -> Optional[Path]:
    try:
        root = resources.files("repro.pds") / "data" / f"iblt_params_{denom}.csv"
    except (ModuleNotFoundError, TypeError):  # pragma: no cover
        return None
    path = Path(str(root))
    return path if path.exists() else None


def default_param_table(denom: int = DEFAULT_DENOM) -> IBLTParamTable:
    """Return the shipped table for failure rate ``1/denom`` (cached).

    Only the rates of :data:`SUPPORTED_DENOMS` ship; a ``denom`` with no
    table -- or a shipped one whose CSV is missing -- raises
    :class:`~repro.errors.ParameterError` rather than serve shapes no
    search certified for that rate.
    """
    if denom in _CACHE:
        return _CACHE[denom]
    path = _data_path(denom)
    if path is None:
        raise ParameterError(
            f"no IBLT parameter table ships for failure rate 1/{denom}; "
            f"the shipped rates are "
            f"{', '.join(f'1/{d}' for d in SUPPORTED_DENOMS)} (search "
            f"one live with `repro iblt-params --search`, or generate a "
            f"table with scripts/gen_param_tables.py)")
    table = _CACHE[denom] = IBLTParamTable.from_csv(path, denom)
    return table
