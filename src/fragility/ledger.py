"""The counting comparator.

An element's id is a plain ``int``: its index in the session's values.  Batch
paths pass the same indices as ``np.intp`` arrays.  A session built from a
numpy array keeps its payloads once, in a private copy: the batch paths index
that array, and scalar comparisons read Python scalars from it through a
``memoryview`` where its dtype allows (see ``_scalar_view``).  Every algorithm
in this package performs ordering queries exclusively through a
:class:`ComparisonLedger`, which records how many comparisons each element
participates in.  A comparison answers with an ``int`` sign, -1, 0 or +1, on
the scalar and the batch paths alike; ``less``, ``less_batch`` and
``sort_network`` answer in one strict order, payload first, then index.
``sort_network`` runs every comparator network: a small one, or one on
payloads it cannot rank, as a loop of ``less``; any other in one pass that
ranks the elements in that order once and moves ranks layer by layer, so each
comparator counts one comparison of the same two elements as ``less`` would.
Tests check results in the uncounted audit mode, so that those checks never
distort the measured comparison counts.

Each comparison is tallied once, in the int64 array of the innermost open
phase or, outside every phase, the unphased one; ``counts`` is their sum.  The
scalar path bumps it through a ``memoryview`` (half a numpy item increment's
cost), the pair batches with ``np.add.at`` and a ranked network once.
"""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterable, Optional, Sequence

import numpy as np

from .errors import EmptyInput, SelfComparison, UnknownElement

# Small networks are faster one comparator at a time through ``less`` than
# ranked, whose ranking and tally cost ~12 us in all.  Warm schedule, in a
# phase (CPython 3.11.7, numpy 2.4.6, 2 vCPU), scalar against ranked: 23-26
# against 31-32 us at 12 wires, 29-31 against 31-33 at 14, 32-36 against
# 31-32 at 15, 35-37 against 31-33 at 16, 100-106 against 44 at 32.
SCALAR_NETWORK_WIRES = 14


class ComparisonLedger:
    """The sole gateway for ordering queries within one session.

    A ledger is confined to a single thread of execution at a time; run
    independent sessions for parallel trials.
    """

    __slots__ = ("_values", "_vnum", "_n", "_phases", "_open", "_tallies", "total")

    def __init__(self, values: Sequence) -> None:
        if len(values) == 0:
            raise EmptyInput("a session needs at least one value")
        if isinstance(values, np.ndarray):
            vnum = np.array(values)  # a private copy
            # the scalar comparisons need plain Python scalars, which are
            # faster to compare than numpy scalars: a memoryview of the copy
            # yields them without a second copy of the payloads
            view = _scalar_view(vnum)
            self._values = vnum.tolist() if view is None else view
        else:
            self._values = list(values)
            try:
                vnum = np.array(values)
            except Exception:
                vnum = None
            # a float array can merge distinct ints (2**60 and 2**60 + 1), and
            # a str or bytes array drops trailing NULs ('a\x00' reads 'a'); a
            # NaN also fails this check, and per-pair compares agree on it
            if vnum is not None and vnum.dtype.kind in "fUS" and vnum.tolist() != self._values:
                vnum = None
        # tuple payloads or a 2-D array would compare element-wise in numpy, and
        # complex ones lexicographically where compare raises, so only a 1-D
        # array of another kind serves the batch path; the rest compare per pair
        self._vnum = None if vnum is None or vnum.dtype.kind in "Oc" or vnum.ndim != 1 else vnum
        self._n = len(self._values)
        # phase name -> its tally, None -> outside every phase; a comparison
        # bumps _open, the innermost open phase's tally, through _tallies
        self._open = np.zeros(self._n, dtype=np.int64)
        self._phases: dict[Optional[str], np.ndarray] = {None: self._open}
        self._tallies = memoryview(self._open)
        self.total = 0

    # -- construction ---------------------------------------------------

    def ids(self) -> range:
        return range(self._n)

    # -- counted comparisons --------------------------------------------

    def _check(self, a: int, b: int) -> None:
        n = self._n
        if not (0 <= a < n) or not (0 <= b < n):
            raise UnknownElement(f"ids {a}, {b} outside session of size {n}")
        if a == b:
            raise SelfComparison(f"element {a} compared with itself")

    def compare(self, a: int, b: int) -> int:
        """Counted sign of ``a``'s payload against ``b``'s: -1, 0 or +1."""
        n = self._n
        # before any increment: a memoryview reads index -1 as its last item
        if not (0 <= a < n and 0 <= b < n and a != b):
            self._check(a, b)
        tallies = self._tallies
        tallies[a] += 1
        tallies[b] += 1
        self.total += 1
        va, vb = self._values[a], self._values[b]
        return -1 if va < vb else 1 if vb < va else 0

    def less(self, a: int, b: int) -> bool:
        """Counted strict order; equal payloads break ties by element index.

        Tie-breaking is arithmetic on indices and costs no extra comparison.
        """
        sign = self.compare(a, b)
        return sign < 0 if sign else a < b

    def less_batch(self, a_indices: np.ndarray, b_indices: np.ndarray | int) -> np.ndarray:
        """:meth:`less` per pair, as a bool array: the same counted pairs as
        :meth:`compare_batch`, which takes the same arguments."""
        a_indices, b_indices, va, vb = self._count_batch(a_indices, b_indices)
        if va is None:
            return _per_pair(self.less, a_indices, b_indices, bool)
        # unordered pairs (NaN) are neither greater nor less: index order, as in less
        return (va < vb) | (~(va > vb) & (a_indices < b_indices))

    def compare_batch(self, a_indices: np.ndarray, b_indices: np.ndarray | int) -> np.ndarray:
        """Vectorized counted comparisons; returns -1/0/+1 per pair.

        Semantically identical to calling :meth:`compare` per pair, without a
        Python-level loop where the payloads form a 1-D numpy array.
        ``b_indices`` is an array of the same shape, or a single id (a scalar,
        not a length-1 array) compared with every element of ``a_indices``,
        whose count then rises by ``a_indices.size``.
        """
        a_indices, b_indices, va, vb = self._count_batch(a_indices, b_indices)
        if va is None:
            return _per_pair(self.compare, a_indices, b_indices, np.int8)
        # unordered pairs (NaN) are neither greater nor less: sign 0, as in compare
        return (va > vb).astype(np.int8) - (va < vb)

    def _count_batch(self, a_indices, b_indices) -> tuple:
        """``(a, b, va, vb)``: the ids as validated ``np.intp`` arrays and, with
        every pair counted, their payloads; ``va`` and ``vb`` are None where
        the payloads form no 1-D array, and per-pair scalar calls count."""
        a_indices = np.asarray(a_indices, dtype=np.intp)
        b_indices = np.asarray(b_indices, dtype=np.intp)
        if b_indices.ndim and b_indices.shape != a_indices.shape:
            raise ValueError(
                f"b_indices of shape {b_indices.shape} does not pair with"
                f" a_indices of shape {a_indices.shape}"
            )
        n = self._n
        for idx in (a_indices, b_indices):
            # one reduction: a negative id reads as a huge unsigned one
            if idx.size and idx.view(np.uintp).max() >= n:
                raise UnknownElement("batch index outside session")
        if (a_indices == b_indices).any():
            raise SelfComparison("batch contains a self-comparison")
        vnum = self._vnum
        if vnum is None:
            return a_indices, b_indices, None, None
        # one comparison per pair on both sides; a single b takes them all
        tally = self._open
        np.add.at(tally, a_indices, 1)
        if b_indices.ndim:
            np.add.at(tally, b_indices, 1)
        else:
            tally[b_indices] += a_indices.size
        self.total += a_indices.size
        return a_indices, b_indices, vnum[a_indices], vnum[b_indices]

    def sort_network(self, ids: Sequence[int], lo: np.ndarray, hi: np.ndarray,
                     ends: np.ndarray) -> list:
        """``ids`` sorted on the comparator network ``(lo, hi, ends)`` (see
        :func:`fragility.primitives.build_schedule`), counted as a loop of
        :meth:`less` over its comparators.

        Ids are checked before any count: an unknown id raises
        :class:`UnknownElement`, and a repeated id :class:`SelfComparison`, as
        its two copies would on meeting.  Above :data:`SCALAR_NETWORK_WIRES`
        wires, where the payloads are a NaN-free bool, int, uint, float, str or
        bytes array, the m elements are ranked once in :meth:`less`'s strict
        order (payload, then index); each layer is one ``np.minimum`` and one
        ``np.maximum`` on ranks, so every comparator still meets the same two
        elements.  Every other network runs that loop of :meth:`less`.
        """
        ids = list(ids)
        m = len(ids)
        if m and not (0 <= min(ids) and max(ids) < self._n):
            raise UnknownElement("network id outside session")
        if len(set(ids)) < m:
            raise SelfComparison("network holds an id twice")
        vnum = self._vnum
        ranked = m > SCALAR_NETWORK_WIRES and vnum is not None and vnum.dtype.kind in "biufUS"
        if ranked:
            wired = np.array(ids, dtype=np.intp)
            payloads = vnum[wired]
            # NaN is unordered: less breaks it by index against everything
            ranked = payloads.dtype.kind != "f" or not np.isnan(payloads).any()
        if not ranked:
            less = self.less
            for i, j in zip(lo.tolist(), hi.tolist()):
                if not less(ids[i], ids[j]):
                    ids[i], ids[j] = ids[j], ids[i]
            return ids
        order = np.lexsort((wired, payloads))
        elems = wired[order]  # rank -> id
        ranks = np.empty_like(order)
        ranks[order] = np.arange(m)  # wire -> rank
        met = []
        start = 0
        for end in ends.tolist():
            wa, wb = lo[start:end], hi[start:end]
            start = end
            a, b = ranks[wa], ranks[wb]
            met += (a, b)
            ranks[wa] = np.minimum(a, b)
            ranks[wb] = np.maximum(a, b)
        tally = np.bincount(np.concatenate(met), minlength=m) if met else 0
        self._open[elems] += tally
        self.total += lo.size
        return elems[ranks].tolist()

    # -- audit mode -----------------------------------------------------

    def audit_compare(self, a: int, b: int) -> int:
        """Uncounted :meth:`compare`: no count or total rises."""
        self._check(a, b)
        va, vb = self._values[a], self._values[b]
        return -1 if va < vb else 1 if vb < va else 0

    def payload(self, a: int):
        """Audit-only payload access for oracles and verifiers."""
        if not (0 <= a < self._n):
            raise UnknownElement(str(a))
        return self._values[a]

    def sort_key(self, a: int) -> tuple:
        """Audit-only total-order key (payload, then index)."""
        return (self.payload(a), a)

    # -- counts and phases ------------------------------------------------

    @property
    def counts(self) -> np.ndarray:
        """Each element's load, the sum of the unphased tally and every phase's:
        the unphased tally itself, live, until a phase is first opened, and
        from then on a fresh array on every read."""
        phases = self._phases
        return phases[None] if len(phases) == 1 else sum(phases.values())

    @contextmanager
    def in_phase(self, name: str):
        """Tally the body's comparisons in phase ``name`` alone, and none of
        them in an enclosing phase or outside every phase; the enclosing tally
        is open again on exit, also when the body raises."""
        tally = self._phases.get(name)
        if tally is None:
            tally = self._phases[name] = np.zeros(self._n, dtype=np.int64)
        previous = self._open, self._tallies
        self._open, self._tallies = tally, memoryview(tally)
        try:
            yield
        finally:
            self._open, self._tallies = previous

    def phase_counts(self, name: str) -> np.ndarray:
        """Each element's load from the comparisons made while ``name`` was the
        innermost open phase: the live tally, or zeros for a phase never opened."""
        tally = self._phases.get(name)
        return np.zeros(self._n, dtype=np.int64) if tally is None else tally


def _per_pair(scalar, a_indices: np.ndarray, b_indices: np.ndarray, dtype) -> np.ndarray:
    """``scalar(a, b)`` per pair, for payloads that numpy cannot compare."""
    pairs = zip(a_indices.tolist(), np.broadcast_to(b_indices, a_indices.shape).tolist())
    return np.array([scalar(i, j) for i, j in pairs], dtype=dtype)


def _scalar_view(vnum: np.ndarray) -> Optional[memoryview]:
    """A memoryview whose items are ``vnum.tolist()``'s scalars, or None.

    Only 1-D native-byte-order bool, int, uint and float arrays qualify, and
    only where ``memoryview`` can index their format (CPython 3.11 cannot
    index float16 or long double).
    """
    if vnum.ndim != 1 or vnum.dtype.kind not in "biuf" or not vnum.dtype.isnative:
        return None
    view = memoryview(vnum)
    try:
        view[0]
    except NotImplementedError:
        return None
    return view


def new_session(values: Sequence) -> tuple[ComparisonLedger, range]:
    """Create a session over ``values``; its ids are ``range(n)``, in input order."""
    ledger = ComparisonLedger(values)
    return ledger, ledger.ids()


def audit_sorted(ledger: ComparisonLedger, ids: Iterable[int]) -> list[int]:
    """Uncounted oracle sort by (payload, index)."""
    return sorted(ids, key=ledger.sort_key)
