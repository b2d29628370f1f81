"""Fault maps of the systolic computational array.

A :class:`FaultMap` records which processing elements (PEs) of an ``R x C``
systolic array suffer a permanent fault.  Following the fault model of
Zhang et al. (VTS 2018) — the model the paper builds on — a faulty PE is
assumed to have a fault in its MAC unit that is mitigated by *bypassing* the
multiplier (Fault-Aware Pruning), which is equivalent to forcing every weight
mapped onto that PE to zero.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.utils.rng import SeedLike, new_rng


class FaultMap:
    """Boolean map of permanently faulty PEs in an ``R x C`` systolic array."""

    def __init__(self, faulty: np.ndarray) -> None:
        array = np.asarray(faulty)
        if array.ndim != 2:
            raise ValueError(f"a fault map must be 2-D, got shape {array.shape}")
        if array.size == 0:
            raise ValueError("a fault map must have at least one PE")
        self._faulty = array.astype(bool).copy()
        self._faulty.setflags(write=False)

    # -- constructors --------------------------------------------------------

    @classmethod
    def none(cls, rows: int, cols: int) -> "FaultMap":
        """A fully functional (fault-free) array."""
        return cls(np.zeros((rows, cols), dtype=bool))

    @classmethod
    def from_array(cls, faulty: Sequence[Sequence[bool]]) -> "FaultMap":
        return cls(np.asarray(faulty, dtype=bool))

    @classmethod
    def from_indices(cls, rows: int, cols: int, indices: Iterable[Tuple[int, int]]) -> "FaultMap":
        """Build a map from explicit ``(row, col)`` faulty-PE coordinates.

        ``indices`` may be any iterable of pairs (or a ``(K, 2)`` integer
        array).  A coordinate outside the array raises :class:`IndexError`
        naming the first such pair in input order; non-integer coordinates
        (``1.5``, ``"0"``, ``True``) are rejected rather than truncated.
        """
        if not isinstance(indices, np.ndarray):
            indices = list(indices)
        coords = np.asarray(indices)
        if len(coords) == 0:
            return cls.none(rows, cols)
        if coords.ndim != 2 or coords.shape[1] != 2:
            raise ValueError(f"PE coordinates must be (row, col) pairs, got shape {coords.shape}")
        if coords.dtype.kind not in "iu":
            raise IndexError(f"PE coordinates must be integers, got dtype {coords.dtype}")
        r, c = coords[:, 0], coords[:, 1]
        outside = (r < 0) | (r >= rows) | (c < 0) | (c >= cols)
        if outside.any():
            first = int(np.argmax(outside))
            raise IndexError(
                f"PE coordinate ({r[first]}, {c[first]}) outside a {rows}x{cols} array"
            )
        faulty = np.zeros((rows, cols), dtype=bool)
        faulty[r, c] = True
        return cls(faulty)

    @classmethod
    def random(
        cls,
        rows: int,
        cols: int,
        fault_rate: float,
        seed: SeedLike = None,
        exact: bool = True,
    ) -> "FaultMap":
        """Random permanent-fault map (the paper's fault-injection model).

        With ``exact=True`` exactly ``round(fault_rate * rows * cols)`` PEs are
        marked faulty (uniformly without replacement), which makes the
        realised fault rate deterministic; with ``exact=False`` each PE fails
        independently with probability ``fault_rate``.
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
        if rows <= 0 or cols <= 0:
            raise ValueError("rows and cols must be positive")
        rng = new_rng(seed)
        total = rows * cols
        faulty = np.zeros(total, dtype=bool)
        if exact:
            count = int(round(fault_rate * total))
            if count > 0:
                chosen = rng.choice(total, size=count, replace=False)
                faulty[chosen] = True
        else:
            faulty = rng.random(total) < fault_rate
        return cls(faulty.reshape(rows, cols))

    @classmethod
    def clustered(
        cls,
        rows: int,
        cols: int,
        fault_rate: float,
        cluster_size: int = 4,
        seed: SeedLike = None,
    ) -> "FaultMap":
        """Spatially clustered faults (e.g. from localized manufacturing defects).

        Faults are added as square clusters of roughly ``cluster_size`` PEs
        until the target fault count is reached; the final cluster is truncated
        so the realised count matches ``round(fault_rate * rows * cols)``.
        """
        if not 0.0 <= fault_rate <= 1.0:
            raise ValueError(f"fault_rate must be in [0, 1], got {fault_rate}")
        if cluster_size <= 0:
            raise ValueError("cluster_size must be positive")
        rng = new_rng(seed)
        target = int(round(fault_rate * rows * cols))
        faulty = np.zeros((rows, cols), dtype=bool)
        side = max(1, int(round(np.sqrt(cluster_size))))
        guard = 0
        while faulty.sum() < target and guard < 100 * rows * cols:
            guard += 1
            top = int(rng.integers(0, rows))
            left = int(rng.integers(0, cols))
            block = faulty[top:top + side, left:left + side]
            needed = target - int(faulty.sum())
            flat = block.reshape(-1)
            healthy = np.flatnonzero(~flat)
            to_fail = healthy[:needed]
            flat[to_fail] = True
            faulty[top:top + side, left:left + side] = flat.reshape(block.shape)
        return cls(faulty)

    @classmethod
    def faulty_rows(cls, rows: int, cols: int, row_indices: Iterable[int]) -> "FaultMap":
        """Whole rows dead (e.g. broken accumulation chains)."""
        faulty = np.zeros((rows, cols), dtype=bool)
        for index in row_indices:
            faulty[index, :] = True
        return cls(faulty)

    @classmethod
    def faulty_columns(cls, rows: int, cols: int, col_indices: Iterable[int]) -> "FaultMap":
        """Whole columns dead (e.g. broken weight-load buses)."""
        faulty = np.zeros((rows, cols), dtype=bool)
        for index in col_indices:
            faulty[:, index] = True
        return cls(faulty)

    # -- properties -----------------------------------------------------------

    @property
    def array(self) -> np.ndarray:
        """Read-only boolean array, ``True`` where the PE is faulty."""
        return self._faulty

    @property
    def rows(self) -> int:
        return self._faulty.shape[0]

    @property
    def cols(self) -> int:
        return self._faulty.shape[1]

    @property
    def shape(self) -> Tuple[int, int]:
        return self._faulty.shape

    @property
    def num_pes(self) -> int:
        return self._faulty.size

    @property
    def num_faulty(self) -> int:
        return int(self._faulty.sum())

    @property
    def fault_rate(self) -> float:
        """Fraction of faulty PEs — the statistic Reduce keys its lookup on."""
        return self.num_faulty / self.num_pes

    def faulty_indices(self) -> np.ndarray:
        """``(K, 2)`` array of the (row, col) coordinates of faulty PEs."""
        return np.argwhere(self._faulty)

    def row_fault_counts(self) -> np.ndarray:
        """Number of faulty PEs in each row."""
        return self._faulty.sum(axis=1)

    def column_fault_counts(self) -> np.ndarray:
        """Number of faulty PEs in each column."""
        return self._faulty.sum(axis=0)

    def rows_with_faults(self) -> np.ndarray:
        return np.flatnonzero(self.row_fault_counts() > 0)

    def columns_with_faults(self) -> np.ndarray:
        return np.flatnonzero(self.column_fault_counts() > 0)

    # -- transformations -------------------------------------------------------

    def permuted_columns(self, permutation: Sequence[int]) -> "FaultMap":
        """Return a new map with columns reordered by ``permutation``.

        Used by fault-aware mapping (FAM): logically re-mapping which weight
        column lands on which physical column is equivalent to permuting the
        columns of the fault map seen by the weights.
        """
        perm = np.asarray(permutation, dtype=np.int64)
        if perm.shape != (self.cols,) or sorted(perm.tolist()) != list(range(self.cols)):
            raise ValueError("permutation must be a permutation of range(cols)")
        return FaultMap(self._faulty[:, perm])

    def union(self, other: "FaultMap") -> "FaultMap":
        """PEs faulty in either map (e.g. faults appearing over a device's lifetime)."""
        if self.shape != other.shape:
            raise ValueError(f"shape mismatch: {self.shape} vs {other.shape}")
        return FaultMap(self._faulty | other.array)

    # -- serialization ----------------------------------------------------------

    def to_dict(self) -> Dict[str, Any]:
        return {
            "rows": self.rows,
            "cols": self.cols,
            "faulty_indices": self.faulty_indices().tolist(),
        }

    @classmethod
    def from_dict(cls, data: Dict[str, Any]) -> "FaultMap":
        return cls.from_indices(int(data["rows"]), int(data["cols"]), data["faulty_indices"])

    # -- dunder ------------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FaultMap):
            return NotImplemented
        return self.shape == other.shape and bool(np.array_equal(self._faulty, other.array))

    def __hash__(self) -> int:
        return hash((self.shape, self._faulty.tobytes()))

    def __repr__(self) -> str:
        return (
            f"FaultMap({self.rows}x{self.cols}, faulty={self.num_faulty}, "
            f"rate={self.fault_rate:.4f})"
        )
