"""Array-backed swap-pricing engine shared by the mapping optimizers.

The hill climber, the annealer, and the multi-chain annealer all iterate
the same move: *swap the processors of two threads and price the change
in weighted hop-sum*.  This module precomputes everything that pricing
needs once per (graph, torus) pair —

* the torus distance backend (:func:`repro.topology.torus.distance_backend`:
  the dense table at small N, the delta-compressed ring-row engine
  above the memory guard, the digit walk beyond that),
* CSR-style per-thread incident adjacency
  (:meth:`CommunicationGraph.incident_csr`), sliced on demand so no
  per-thread python structures are materialized even at 10**6 threads,
  and
* a zero-padded ``(threads, max_degree)`` adjacency matrix for pricing
  many chains' swaps in one batched gather.

A single swap's delta is priced by the compiled kernel
(``_swapcore.c``, loaded with the package's other C code by
:func:`repro.native.load`): a digit walk per edge, integer gains,
summed in CSR order.  It serves every graph whose edge weights are all
integral.  Otherwise — or when the library is unavailable — the delta
is two vectorized gathers per endpoint: neighbor positions -> distance
rows, dotted with edge weights.  ``SwapEngine.pricing`` names the path
and ``pricing_reason`` says why.  Either way, edges *between* the two
swapped threads are invariant under the swap (both endpoints move) and
are skipped, mirroring the loop implementation's ``neighbor == other``
skip.  For integer edge weights every reduction here is exact, so
deltas — and therefore accept/reject decisions — are bit-identical to
the per-edge loops in :mod:`repro.mapping.reference`, whichever path
prices them and whichever distance backend is active.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

from repro import native
from repro.errors import MappingError
from repro.mapping.base import Mapping
from repro.topology.graphs import CommunicationGraph
from repro.topology.torus import Torus, distance_backend

__all__ = ["SwapEngine"]


def check_sizes(
    graph: CommunicationGraph, torus: Torus, initial: Mapping, steps: int
) -> None:
    """The optimizers' shared argument validation."""
    initial.require_bijective()
    if initial.threads != graph.threads:
        raise MappingError(
            f"mapping covers {initial.threads} threads but graph has "
            f"{graph.threads}"
        )
    if initial.processors != torus.node_count:
        raise MappingError(
            f"mapping targets {initial.processors} processors but torus "
            f"has {torus.node_count} nodes"
        )
    if steps < 0:
        raise MappingError(f"steps must be >= 0, got {steps!r}")


def undo_swaps(position: np.ndarray, journal: List[Tuple[int, int]]) -> None:
    """Undo a journal of swaps on ``position``, newest first.

    The optimizers journal the swaps they accept after their last new
    best; undoing them restores the best position without a copy per
    improvement.
    """
    for thread_a, thread_b in reversed(journal):
        position[thread_a], position[thread_b] = (
            position[thread_b],
            position[thread_a],
        )


class SwapEngine:
    """Precomputed locality arrays for pricing pairwise-swap moves.

    ``pricing`` is ``"c"`` when :meth:`swap_delta` runs the compiled
    kernel and ``"numpy"`` when it uses the gathers; ``pricing_reason``
    says why.  Both are decided once, here.
    """

    def __init__(self, graph: CommunicationGraph, torus: Torus):
        self.graph = graph
        self.torus = torus
        self.backend = distance_backend(torus)
        self.table = self.backend.table
        self.total_weight = graph.total_weight
        self._indptr, self._neighbors, self._weights = graph.incident_csr()
        self._padded: Optional[Tuple[np.ndarray, np.ndarray]] = None
        # Compiled pricing: the kernel, its leading arguments (the CSR
        # pointers), and the full argument prefix bound to the last
        # position array seen.
        self._kernel = None
        self._position = None
        self._bound: Optional[tuple] = None
        self.pricing = "numpy"
        weights = self._weights
        if not np.all(np.isfinite(weights) & (weights == np.trunc(weights))):
            self.pricing_reason = "non-integral edge weights"
            return
        loaded = native.load()
        if loaded is None:
            self.pricing_reason = (
                f"compiled kernels unavailable: {native.load_failure() or 'not built'}"
            )
            return
        self.pricing = "c"
        self.pricing_reason = "compiled kernel, integral edge weights"
        self._ffi, lib = loaded
        self._kernel = lib.sc_swap_delta
        self._csr = (
            self._ffi.cast("intptr_t *", self._indptr.ctypes.data),
            self._ffi.cast("intptr_t *", self._neighbors.ctypes.data),
            self._ffi.cast("double *", weights.ctypes.data),
        )

    # ------------------------------------------------------------------
    # Adjacency access (CSR slices, zero-copy views).
    # ------------------------------------------------------------------

    def incident(self, thread: int) -> Tuple[np.ndarray, np.ndarray]:
        """``(neighbors, weights)`` of the edges touching ``thread``."""
        start = self._indptr[thread]
        end = self._indptr[thread + 1]
        return self._neighbors[start:end], self._weights[start:end]

    # ------------------------------------------------------------------
    # Distance access (dense gather, delta gather, or digit walk).
    # ------------------------------------------------------------------

    def distances(self, processor: int, others: np.ndarray) -> np.ndarray:
        """Hops from one processor to an array of processors."""
        return self.backend.pairwise(processor, others)

    def distances_2d(self, processors: np.ndarray, others: np.ndarray) -> np.ndarray:
        """Hops between broadcastable arrays of processors (chain batch)."""
        return self.backend.pairwise(processors, others)

    # ------------------------------------------------------------------
    # Whole-mapping and per-swap costs.
    # ------------------------------------------------------------------

    def weighted_hop_sum(self, position: np.ndarray) -> float:
        """Total weighted hops of a mapping (the optimizers' objective)."""
        src, dst, weight = self.graph.edge_arrays()
        hops = self.backend.pairwise(position[src], position[dst])
        return float(weight @ hops)

    def swap_delta(self, position: np.ndarray, thread_a: int, thread_b: int) -> float:
        """Change in weighted hop-sum if the two threads swap processors.

        ``position`` is not modified.  On the compiled path the pointer
        to ``position`` is cast once and reused while the same array
        comes back.  What the kernel cannot read in place — anything but
        a contiguous ``intp`` array of one entry per thread, or a thread
        id outside ``0..threads-1`` — is priced by the numpy gathers.
        """
        if self._kernel is not None:
            threads = self.graph.threads
            if position is not self._position:
                self._position = position
                self._bound = (
                    self._csr
                    + (
                        self._ffi.cast("intptr_t *", position.ctypes.data),
                        self.torus.radix,
                        self.torus.dimensions,
                    )
                    if isinstance(position, np.ndarray)
                    and position.dtype == np.intp
                    and position.shape == (threads,)
                    and position.flags.c_contiguous
                    else None
                )
            if (
                self._bound is not None
                and 0 <= thread_a < threads
                and 0 <= thread_b < threads
            ):
                return self._kernel(*self._bound, thread_a, thread_b)
        return self._numpy_swap_delta(position, thread_a, thread_b)

    def _numpy_swap_delta(
        self, position: np.ndarray, thread_a: int, thread_b: int
    ) -> float:
        """The numpy pricing: two gathers per endpoint.

        Each endpoint's neighbors' positions are priced against its old
        and new processor; edges between the pair are masked out as
        swap-invariant.  For integer weights the grouping
        ``w @ (after - before)`` is exact, so the result matches the loop
        reference bit for bit.
        """
        here_a = position[thread_a]
        here_b = position[thread_b]
        nbr_a, weight_a = self.incident(thread_a)
        nbr_b, weight_b = self.incident(thread_b)
        if thread_b in nbr_a:
            weight_a = weight_a * (nbr_a != thread_b)
            weight_b = weight_b * (nbr_b != thread_a)
        pos_a = position[nbr_a]
        pos_b = position[nbr_b]
        pairwise = self.backend.pairwise
        gain_a = pairwise(here_b, pos_a).astype(np.int64) - pairwise(here_a, pos_a)
        gain_b = pairwise(here_a, pos_b).astype(np.int64) - pairwise(here_b, pos_b)
        return weight_a @ gain_a + weight_b @ gain_b

    # ------------------------------------------------------------------
    # Padded adjacency for batched multi-chain pricing.
    # ------------------------------------------------------------------

    def padded_adjacency(self) -> Tuple[np.ndarray, np.ndarray]:
        """``(threads, max_degree)`` neighbor/weight matrices, zero-padded.

        Padding entries have weight 0 and neighbor id 0, so they gather a
        valid (ignored) distance and contribute exactly ``0.0`` to every
        dot product — keeping batched sums equal to the unpadded ones for
        integer weights.  Built by one vectorized scatter from the CSR
        arrays.
        """
        if self._padded is None:
            threads = self.graph.threads
            indptr = self._indptr
            degrees = np.diff(indptr)
            max_degree = int(degrees.max()) if degrees.size else 0
            nbr = np.zeros((threads, max(max_degree, 1)), dtype=np.intp)
            wgt = np.zeros((threads, max(max_degree, 1)), dtype=np.float64)
            if self._neighbors.size:
                rows = np.repeat(np.arange(threads, dtype=np.intp), degrees)
                cols = np.arange(self._neighbors.size, dtype=np.intp) - np.repeat(
                    indptr[:-1], degrees
                )
                nbr[rows, cols] = self._neighbors
                wgt[rows, cols] = self._weights
            nbr.setflags(write=False)
            wgt.setflags(write=False)
            self._padded = (nbr, wgt)
        return self._padded
