"""Shared-memory bank allocation for the GPU kernel (Sec. III.2 of the paper).

When the threads of a warp read their operands from shared memory, accesses
that map to the same bank are serialized ("bank conflicts").  The paper
minimizes them with a graph-coloring based allocation: two values conflict
when threads of the same warp access them in the same kernel step, and the
allocator tries to give conflicting values different banks (colors).

This module builds that conflict graph from the thread assignment of the
CUDA kernel and colors it greedily in largest-degree-first order, which is
the standard heuristic for this problem.  The naive alternative — interleaved
placement by slot index, which is what the plain ``A[i + j*t]`` layout of
Algorithm 3 produces — is kept as a baseline for ablation.
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, Iterable, List, Sequence, Set, Tuple

from ..spn.linearize import OperationList

__all__ = [
    "interleaved_allocation",
    "conflict_graph",
    "color_banks",
    "graph_coloring_allocation",
    "count_warp_conflicts",
    "warp_access_steps",
    "step_transactions",
]


def interleaved_allocation(ops: OperationList, n_banks: int) -> List[int]:
    """Slot-index-modulo-banks placement (the layout of Algorithm 3)."""
    if n_banks < 1:
        raise ValueError("n_banks must be >= 1")
    return [slot % n_banks for slot in range(ops.n_slots)]


def warp_access_steps(ops: OperationList, warp_ops: Sequence[int]) -> List[List[int]]:
    """The three shared-memory access steps of one warp instruction.

    A warp executing operations ``warp_ops`` reads all first operands
    together, then all second operands together, then writes all
    destinations together; each step is serialized by bank conflicts
    independently.  This is the single definition of that access pattern,
    shared by the conflict-graph builder, the conflict counter and the GPU
    timing model (:func:`repro.baselines.gpu.simulate_gpu`).
    """
    operations = ops.operations
    base = ops.n_inputs  # operation j writes slot n_inputs + j
    return [
        [operations[j].arg0 for j in warp_ops],
        [operations[j].arg1 for j in warp_ops],
        [base + j for j in warp_ops],
    ]


def step_transactions(slots: Sequence[int], bank_of: Sequence[int]) -> int:
    """Shared-memory transactions one access step costs under ``bank_of``.

    Accesses mapping to the same bank serialize, so a step costs as many
    transactions as its most-loaded bank; a conflict-free step costs one.
    """
    banks = list(map(bank_of.__getitem__, slots))
    distinct = set(banks)
    if banks and len(distinct) == len(banks):
        return 1
    return max(map(banks.count, distinct))


def _warp_accesses(
    ops: OperationList, n_threads: int, warp_size: int
) -> Iterable[List[int]]:
    """Yield the groups of slots accessed together by one warp in one step.

    Operation ``j`` of a dependence group runs on thread ``j % n_threads``
    during wave ``j // n_threads`` (the schedule of Algorithm 3).  Each
    (group, wave, warp) contributes its three :func:`warp_access_steps`.
    """
    for group in ops.groups():
        n_waves = (len(group) + n_threads - 1) // n_threads
        for wave in range(n_waves):
            active = group[wave * n_threads : (wave + 1) * n_threads]
            for warp_start in range(0, len(active), warp_size):
                warp_ops = active[warp_start : warp_start + warp_size]
                if not warp_ops:
                    continue
                yield from warp_access_steps(ops, warp_ops)


def conflict_graph(
    ops: OperationList, n_threads: int, warp_size: int = 32
) -> Dict[int, Set[int]]:
    """Build the slot conflict graph used by the coloring allocator.

    Two slots are connected when some warp accesses both in the same step, so
    giving them different banks removes that serialization.
    """
    graph: Dict[int, Set[int]] = {}
    for access in _warp_accesses(ops, n_threads, warp_size):
        unique = set(access)
        # Keys enter in ascending slot order per access: color_banks breaks
        # degree ties by key order.
        for a in sorted(unique):
            neighbours = graph.get(a)
            if neighbours is None:
                neighbours = graph[a] = set()
            neighbours.update(unique)
            neighbours.discard(a)
    return graph


def color_banks(
    graph: Dict[int, Set[int]], n_slots: int, n_banks: int
) -> List[int]:
    """Greedy graph coloring with ``n_banks`` colors, largest degree first.

    When all ``n_banks`` colors are already used by neighbours (the graph is
    not ``n_banks``-colorable), the least-used color among the neighbours is
    chosen, which spreads the remaining conflicts evenly.
    """
    if n_banks < 1:
        raise ValueError("n_banks must be >= 1")
    assignment = [-1] * n_slots
    order = sorted(graph, key=lambda s: len(graph[s]), reverse=True)
    usage = [0] * n_banks
    for slot in order:
        neighbours = graph[slot]
        neighbour_colors = set(map(assignment.__getitem__, neighbours))
        free = [c for c in range(n_banks) if c not in neighbour_colors]
        if free:
            # Among the free colors pick the globally least used one to keep
            # the banks balanced.
            color = min(free, key=usage.__getitem__)
        else:
            counts = Counter(map(assignment.__getitem__, neighbours))
            color = min(range(n_banks), key=lambda c: (counts[c], usage[c]))
        assignment[slot] = color
        usage[color] += 1
    # Slots never touched by any warp (for example the final result before it
    # is copied out) are placed round-robin.
    next_bank = 0
    for slot in range(n_slots):
        if assignment[slot] < 0:
            assignment[slot] = next_bank % n_banks
            next_bank += 1
    return assignment


def graph_coloring_allocation(
    ops: OperationList, n_threads: int, n_banks: int, warp_size: int = 32
) -> List[int]:
    """Full pipeline: conflict graph construction followed by greedy coloring."""
    graph = conflict_graph(ops, n_threads, warp_size)
    return color_banks(graph, ops.n_slots, n_banks)


def count_warp_conflicts(
    ops: OperationList,
    bank_of: Sequence[int],
    n_threads: int,
    n_banks: int,
    warp_size: int = 32,
) -> Tuple[int, int]:
    """Count shared-memory transactions for a given bank allocation.

    Returns ``(n_transactions, n_accesses)``: every warp access step costs as
    many transactions as the most-loaded bank within that step, so a
    conflict-free step costs one transaction.  ``n_accesses`` is the number of
    access steps (the lower bound on transactions).
    """
    n_transactions = 0
    n_accesses = 0
    for access in _warp_accesses(ops, n_threads, warp_size):
        n_transactions += step_transactions(access, bank_of)
        n_accesses += 1
    return n_transactions, n_accesses
