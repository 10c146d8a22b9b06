"""The counting comparator.

An element's id is a plain ``int``: its index in the session's values.  Batch
paths pass the same indices as ``np.intp`` arrays.  Every algorithm in this
package performs ordering queries exclusively through a
:class:`ComparisonLedger`, which records how many comparisons each element
participates in.  Test oracles use the uncounted audit mode so that correctness
checks never distort the measured comparison counts.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import IntEnum
from typing import Iterable, Mapping, Optional, Sequence

import numpy as np

from .errors import EmptyInput, SelfComparison, UnknownElement


class Ordering(IntEnum):
    LESS = -1
    EQUAL = 0
    GREATER = 1


@dataclass
class FragilityProfile:
    """Snapshot of per-element comparison counts with aggregates."""

    per_element: dict[int, int]
    max: int
    mean: float
    by_role: dict[str, tuple[int, float]] = field(default_factory=dict)
    phase: Optional[str] = None


class ComparisonLedger:
    """The sole gateway for ordering queries within one session.

    A ledger is confined to a single thread of execution at a time; run
    independent sessions for parallel trials.
    """

    __slots__ = (
        "_values",
        "_vnum",
        "counts",
        "total",
        "audit_total",
        "_phase",
        "_phase_counts",
    )

    def __init__(self, values: Sequence) -> None:
        if len(values) == 0:
            raise EmptyInput("a session needs at least one value")
        # an array's tolist() yields plain Python scalars, which the scalar
        # comparisons handle faster than numpy scalars
        self._values = values.tolist() if isinstance(values, np.ndarray) else list(values)
        try:
            vnum = np.array(values)  # a private copy, also of an array
            if vnum.dtype == object:
                vnum = None
        except Exception:
            vnum = None
        self._vnum = vnum
        self.counts = np.zeros(len(self._values), dtype=np.int64)
        self.total = 0
        self.audit_total = 0
        self._phase: Optional[str] = None
        self._phase_counts: dict[str, np.ndarray] = {}

    # -- construction ---------------------------------------------------

    @property
    def size(self) -> int:
        return len(self._values)

    def ids(self) -> list[int]:
        return list(range(len(self._values)))

    # -- counted comparisons --------------------------------------------

    def _check(self, a: int, b: int) -> None:
        n = len(self._values)
        if not (0 <= a < n) or not (0 <= b < n):
            raise UnknownElement(f"ids {a}, {b} outside session of size {n}")
        if a == b:
            raise SelfComparison(f"element {a} compared with itself")

    def compare(self, a: int, b: int) -> Ordering:
        self._check(a, b)
        counts = self.counts
        counts[a] += 1
        counts[b] += 1
        self.total += 1
        if self._phase is not None:
            pc = self._phase_counts[self._phase]
            pc[a] += 1
            pc[b] += 1
        va, vb = self._values[a], self._values[b]
        if va < vb:
            return Ordering.LESS
        if vb < va:
            return Ordering.GREATER
        return Ordering.EQUAL

    def less(self, a: int, b: int) -> bool:
        """Counted strict order; equal payloads break ties by element index.

        Tie-breaking is arithmetic on indices and costs no extra comparison.
        """
        order = self.compare(a, b)
        if order is Ordering.EQUAL:
            return a < b
        return order is Ordering.LESS

    def compare_batch(self, a_indices: np.ndarray, b_indices: np.ndarray) -> np.ndarray:
        """Vectorized counted comparisons; returns -1/0/+1 per pair.

        Semantically identical to calling :meth:`compare` per pair; used by
        comparator-network application and sample filtering where Python-level
        loops would dominate the runtime.
        """
        a_indices = np.asarray(a_indices, dtype=np.intp)
        b_indices = np.asarray(b_indices, dtype=np.intp)
        n = len(self._values)
        if a_indices.size:
            if a_indices.min() < 0 or a_indices.max() >= n:
                raise UnknownElement("batch index outside session")
            if b_indices.min() < 0 or b_indices.max() >= n:
                raise UnknownElement("batch index outside session")
        if np.any(a_indices == b_indices):
            raise SelfComparison("batch contains a self-comparison")
        if self._vnum is None:
            pairs = zip(a_indices.tolist(), b_indices.tolist())
            return np.array([int(self.compare(i, j)) for i, j in pairs], dtype=np.int8)
        np.add.at(self.counts, a_indices, 1)
        np.add.at(self.counts, b_indices, 1)
        self.total += int(a_indices.size)
        if self._phase is not None:
            pc = self._phase_counts[self._phase]
            np.add.at(pc, a_indices, 1)
            np.add.at(pc, b_indices, 1)
        va = self._vnum[a_indices]
        vb = self._vnum[b_indices]
        # unordered pairs (NaN) are neither greater nor less: sign 0, as in compare
        return (va > vb).astype(np.int8) - (va < vb)

    # -- audit mode -----------------------------------------------------

    def audit_compare(self, a: int, b: int) -> Ordering:
        self._check(a, b)
        self.audit_total += 1
        va, vb = self._values[a], self._values[b]
        if va < vb:
            return Ordering.LESS
        if vb < va:
            return Ordering.GREATER
        return Ordering.EQUAL

    def audit_less(self, a: int, b: int) -> bool:
        order = self.audit_compare(a, b)
        if order is Ordering.EQUAL:
            return a < b
        return order is Ordering.LESS

    def payload(self, a: int):
        """Audit-only payload access for oracles and verifiers."""
        if not (0 <= a < len(self._values)):
            raise UnknownElement(str(a))
        return self._values[a]

    def sort_key(self, a: int) -> tuple:
        """Audit-only total-order key (payload, then index)."""
        return (self.payload(a), a)

    # -- phases ----------------------------------------------------------

    @contextmanager
    def in_phase(self, name: str):
        if name not in self._phase_counts:
            self._phase_counts[name] = np.zeros(len(self._values), dtype=np.int64)
        previous = self._phase
        self._phase = name
        try:
            yield
        finally:
            self._phase = previous

    def phase_counts(self, name: str) -> np.ndarray:
        return self._phase_counts.get(name, np.zeros(len(self._values), dtype=np.int64))

    # -- profiling -------------------------------------------------------

    def profile(
        self,
        role_map: Optional[Mapping[int, str]] = None,
        phase: Optional[str] = None,
    ) -> FragilityProfile:
        counts = self.counts if phase is None else self.phase_counts(phase)
        per_element = {i: int(c) for i, c in enumerate(counts)}
        mx = int(counts.max()) if len(counts) else 0
        mean = float(counts.mean()) if len(counts) else 0.0
        by_role: dict[str, tuple[int, float]] = {}
        if role_map:
            grouped: dict[str, list[int]] = {}
            for eid, role in role_map.items():
                grouped.setdefault(role, []).append(int(counts[eid]))
            by_role = {r: (max(v), sum(v) / len(v)) for r, v in grouped.items()}
        return FragilityProfile(per_element=per_element, max=mx, mean=mean, by_role=by_role, phase=phase)


def new_session(values: Sequence) -> tuple[ComparisonLedger, list[int]]:
    """Create a session over ``values``; its ids are ``0..n-1`` in input order."""
    ledger = ComparisonLedger(values)
    return ledger, ledger.ids()


def audit_sorted(ledger: ComparisonLedger, ids: Iterable[int]) -> list[int]:
    """Uncounted oracle sort by (payload, index)."""
    return sorted(ids, key=ledger.sort_key)
