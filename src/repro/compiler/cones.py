"""Cone extraction: covering the operation DAG with PE-tree-shaped subtrees.

The datapath executes, per tree and per cycle, a *cone*: a small binary tree
of operations whose intermediate results travel between PE levels without
touching the register file ("local reuse of data, avoiding frequent
writebacks to the register file", Sec. IV).  The compiler therefore first
covers the binary operation DAG with cones and only then schedules cones onto
the machine.

Two properties of the target datapath shape the covering:

* PEs at *every* level can write their output back to (a restricted window
  of) the register file, so a cone may produce several outputs: besides its
  root, any absorbed operation whose value is also needed by other cones is
  written out from the PE level where it is computed.  This is what lets the
  tree advance several levels of a dependence chain per issue even when the
  intermediate values have fan-out.
* Within one cone every value must flow strictly upwards through the tree, so
  an operation cannot be absorbed if one of its operands is itself a member
  of the cone reached through a different branch (a "diamond") — that operand
  would have to be read from the register file in the same cycle it is being
  produced.

Cone height is chosen per root by a density heuristic: a cone of height ``h``
blocks an aligned group of ``2**h`` leaf PEs, so the extractor picks the
height with the best operations-per-blocked-leaf ratio (deeper cones win ties
because they also shorten dependence chains and save register-file traffic).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Set, Tuple

from ..spn.linearize import OperationList

__all__ = ["ConeOperand", "Cone", "ConeGraph", "extract_cones"]


@dataclass(frozen=True, slots=True)
class ConeOperand:
    """One operand of an operation inside a cone.

    ``internal`` operands refer to another operation *of the same cone* (by
    operation index); ``external`` operands refer to an operation-list slot
    that must be read from the register file (an input slot or the output of
    another cone).
    """

    kind: str  # "internal" | "external"
    op_index: int = -1
    slot: int = -1

    @staticmethod
    def internal(op_index: int) -> "ConeOperand":
        return ConeOperand(kind="internal", op_index=op_index)

    @staticmethod
    def external(slot: int) -> "ConeOperand":
        return ConeOperand(kind="external", slot=slot)


@dataclass(frozen=True, slots=True)
class Cone:
    """A cone of operations rooted at ``root_op``.

    Cones are built once by :func:`extract_cones` and never change, so the
    facts the scheduler reads on every placement attempt (operand slots,
    height) are computed at construction.

    Attributes
    ----------
    index:
        Cone id within its :class:`ConeGraph`.
    root_op:
        Operation-list index of the root operation.
    members:
        Operation indices covered by this cone (including the root).
    operands:
        For every member operation, its two operands as :class:`ConeOperand`.
    depth_from_root:
        Distance of every member from the root along cone edges; together
        with the cone height it determines the PE level a member executes on.
    outputs:
        Members whose results are written back to the register file: the root
        plus every member whose value is also consumed outside this cone.
    external_slots:
        Slots read from the register file, one entry per operand reference.
    operand_slots:
        The distinct ``external_slots`` in ``set`` iteration order; each is
        read once per issue, and the order decides which operand of a bank
        clash gets a relocation copy.
    height:
        Longest root-to-member path (a single operation has height 0).
    """

    index: int
    root_op: int
    members: Tuple[int, ...]
    operands: Dict[int, Tuple[ConeOperand, ConeOperand]]
    depth_from_root: Dict[int, int]
    outputs: Tuple[int, ...]
    external_slots: Tuple[int, ...] = field(init=False)
    operand_slots: Tuple[int, ...] = field(init=False)
    height: int = field(init=False)

    def __post_init__(self) -> None:
        slots = tuple(
            [
                operand.slot
                for op_index in self.members
                for operand in self.operands[op_index]
                if operand.kind == "external"
            ]
        )
        object.__setattr__(self, "external_slots", slots)
        object.__setattr__(self, "operand_slots", tuple(set(slots)))
        object.__setattr__(self, "height", max(self.depth_from_root.values()))

    @property
    def n_ops(self) -> int:
        return len(self.members)

    @property
    def depth(self) -> int:
        """Number of PE levels the cone occupies (height + 1)."""
        return self.height + 1

    def embed_level(self, op_index: int) -> int:
        """PE level a member executes on when the root sits at the cone height."""
        return self.height - self.depth_from_root[op_index]


@dataclass(frozen=True)
class ConeGraph:
    """The cone cover of an operation list plus its dependence structure.

    The dependence edges between cones are derived once, at construction.
    """

    ops: OperationList
    cones: Tuple[Cone, ...]
    #: Cone producing each operation-result slot that is written to the
    #: register file.
    producer: Dict[int, int]
    _predecessors: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False)
    _consumers: Tuple[Tuple[int, ...], ...] = field(init=False, repr=False)

    def __post_init__(self) -> None:
        producer = self.producer.get
        predecessors = []
        consumers: List[List[int]] = [[] for _ in self.cones]
        for cone in self.cones:
            index = cone.index
            preds = {producer(slot, index) for slot in cone.operand_slots}
            preds.discard(index)  # slots without a producer map to the cone itself
            ordered = tuple(sorted(preds))
            predecessors.append(ordered)
            for pred in ordered:
                consumers[pred].append(index)
        object.__setattr__(self, "_predecessors", tuple(predecessors))
        object.__setattr__(self, "_consumers", tuple(map(tuple, consumers)))

    @property
    def n_cones(self) -> int:
        return len(self.cones)

    def predecessors(self, cone: Cone) -> Tuple[int, ...]:
        """Indices of cones whose outputs this cone reads, ascending."""
        return self._predecessors[cone.index]

    def consumers(self, cone: Cone) -> Tuple[int, ...]:
        """Indices of cones reading this cone's outputs, ascending."""
        return self._consumers[cone.index]

    def average_ops_per_cone(self) -> float:
        return self.ops.n_operations / len(self.cones) if self.cones else 0.0

    def asap_levels(self) -> List[int]:
        """Earliest dependence level of every cone (sources are level 0).

        Cones in the same level are mutually independent.  The levels are a
        cheap proxy for the order in which the scheduler will issue cones and
        are used to lay out the input stream in the data memory.
        """
        levels = [0] * len(self.cones)
        # Creation order is reverse-topological (consumers before producers),
        # so iterating in reverse visits producers before consumers.
        for index in range(len(self.cones) - 1, -1, -1):
            preds = self._predecessors[index]
            levels[index] = 1 + max((levels[p] for p in preds), default=-1)
        return levels

    def critical_path_priorities(self) -> List[int]:
        """Priority of each cone: length of the longest cone chain it heads.

        Used by the list scheduler: cones on long dependence chains are
        scheduled first so the chain latency is overlapped with independent
        work.
        """
        priority = [0] * len(self.cones)
        # Cones are created in reverse topological order of their roots, so
        # iterating in creation order visits consumers before producers.
        for index, out in enumerate(self._consumers):
            priority[index] = 1 + max((priority[c] for c in out), default=0)
        return priority


class _Draft:
    """A cone under construction; :meth:`_Extractor._finalize` freezes it."""

    __slots__ = (
        "index", "root_op", "members", "member_set", "operands", "depth_from_root",
        "external",
    )

    def __init__(self, index: int, root_op: int) -> None:
        self.index = index
        self.root_op = root_op
        self.members: List[int] = []
        self.member_set: Set[int] = set()
        self.operands: Dict[int, Tuple[ConeOperand, ConeOperand]] = {}
        self.depth_from_root: Dict[int, int] = {}
        #: Slots read from the register file by the members grown so far.
        self.external: Set[int] = set()


class _Extractor:
    """Implements the greedy covering described in the module docstring."""

    def __init__(
        self,
        ops: OperationList,
        max_depth: int,
        min_density: float,
        slack_threshold: int,
    ) -> None:
        self._ops = ops
        self._operations = ops.operations
        self._n_inputs = n_inputs = ops.n_inputs
        self._max_height = max_depth - 1
        self._min_density = min_density
        self._slack_threshold = slack_threshold
        self._fanout = ops.fanout()
        self._covered = [False] * ops.n_operations
        self._cones: List[Cone] = []
        self._producer: Dict[int, int] = {}
        self._consumers: List[List[int]] = [[] for _ in range(ops.n_operations)]
        for op in ops.operations:
            for arg in (op.arg0, op.arg1):
                if arg >= n_inputs:
                    self._consumers[arg - n_inputs].append(op.index)
        # Only multi-level cones choose a height, and only that uses the slack.
        self._slack = self._compute_slack() if self._max_height > 0 else []

    def _compute_slack(self) -> List[int]:
        """Scheduling slack of every operation (0 = on the critical path).

        Operations with little slack determine the overall latency, so the
        extractor covers them with the deepest possible cones even when those
        cones are sparse; for everything else leaf-PE density wins.
        """
        ops = self._ops
        levels = ops.levels()
        if not levels:
            return []
        critical = max(levels)
        # Longest chain starting at each operation (in operations, inclusive).
        consumers = self._consumers
        down = [1] * ops.n_operations
        for op_index in range(ops.n_operations - 1, -1, -1):
            if consumers[op_index]:
                down[op_index] = 1 + max(down[c] for c in consumers[op_index])
        return [critical - (levels[i] - 1) - down[i] for i in range(ops.n_operations)]

    # -- growth ---------------------------------------------------------- #
    def _absorbable(self, op_index: int, members: Set[int]) -> bool:
        """May ``op_index`` be absorbed into a cone with the given members?

        Two rules keep the cover schedulable:

        * *convexity* — every consumer of the candidate must already be a
          member.  Otherwise a value could leave the cone, pass through
          another cone and feed back into this one, creating a cyclic
          dependence between cones.  (For single-consumer operations this is
          simply the classic fanout-free rule.)
        * *no diamonds* — none of the candidate's operands may already be a
          member, because a value produced inside the cone cannot be read
          back through the crossbar in the same cycle.
        """
        if self._covered[op_index]:
            return False
        for consumer in self._consumers[op_index]:
            if consumer not in members:
                return False
        operation = self._operations[op_index]
        n_inputs = self._n_inputs
        for arg in (operation.arg0, operation.arg1):
            if arg >= n_inputs and (arg - n_inputs) in members:
                return False
        return True

    def _simulate_grow(self, op_index: int, budget: int, members: Set[int]) -> int:
        """Operations a greedy absorb of ``op_index`` with ``budget`` levels covers.

        ``members`` collects the absorbed operations.
        """
        members.add(op_index)
        total = 1
        if budget == 0:
            return total
        operation = self._operations[op_index]
        # An operation whose two operands are the same value (x + x, x * x)
        # must read it from the register file: absorbing it under one edge
        # would leave the other edge reading a value produced in this very
        # cycle, which the datapath cannot do.
        if operation.arg0 == operation.arg1:
            return total
        n_inputs = self._n_inputs
        for arg in (operation.arg0, operation.arg1):
            if arg < n_inputs:
                continue
            child = arg - n_inputs
            if self._absorbable(child, members):
                total += self._simulate_grow(child, budget - 1, members)
        return total

    def _best_height(self, op_index: int) -> int:
        """Pick the cone height for the cone rooted at ``op_index``.

        Roots with little scheduling slack take the deepest cone the covering
        rules allow — every absorbed level removes one register-file
        round-trip from the dependence chain.  Everything else is covered for
        leaf-PE density.
        """
        # Operations each height would cover; height 0 is the root alone.
        counts = [1] + [
            self._simulate_grow(op_index, height, set())
            for height in range(1, self._max_height + 1)
        ]
        best = 0
        if self._slack[op_index] <= self._slack_threshold:
            for height in range(1, self._max_height + 1):
                if counts[height] > counts[best]:
                    best = height
            return best
        best_score = 1.0  # height 0: one op on one leaf PE
        for height in range(1, self._max_height + 1):
            n_ops = counts[height]
            density = n_ops / float(2 ** height)
            if n_ops > 1 and density >= self._min_density and density >= best_score:
                best = height
                best_score = density
        return best

    def _grow(self, draft: _Draft, op_index: int, depth: int, budget: int) -> None:
        """Absorb ``op_index`` at ``depth`` below the root, then grow downwards."""
        n_inputs = self._n_inputs
        self._covered[op_index] = True
        draft.members.append(op_index)
        draft.member_set.add(op_index)
        draft.depth_from_root[op_index] = depth
        operation = self._operations[op_index]
        args = (operation.arg0, operation.arg1)
        # Same-operand operations (x + x, x * x) keep both references external;
        # see _simulate_grow for the rationale.  If an earlier member already
        # reads a value from the register file, producing it inside the cone
        # would leave that read dangling in the same cycle, so it stays
        # external too.  Both tests see the members completed before this one.
        if budget > 0 and args[0] != args[1]:
            absorb = [arg >= n_inputs and arg not in draft.external for arg in args]
        else:
            absorb = (False, False)
        specs: List[ConeOperand] = []
        for arg, try_absorb in zip(args, absorb):
            if try_absorb:
                child = arg - n_inputs
                if self._absorbable(child, draft.member_set):
                    self._grow(draft, child, depth + 1, budget - 1)
                    specs.append(ConeOperand.internal(child))
                    continue
            specs.append(ConeOperand.external(arg))
        draft.operands[op_index] = (specs[0], specs[1])
        for spec in specs:
            if spec.kind == "external":
                draft.external.add(spec.slot)

    # -- driver ----------------------------------------------------------- #
    def run(self) -> ConeGraph:
        ops = self._ops
        for op_index in range(ops.n_operations - 1, -1, -1):
            if self._covered[op_index]:
                continue
            draft = _Draft(index=len(self._cones), root_op=op_index)
            height = self._best_height(op_index) if self._max_height > 0 else 0
            self._grow(draft, op_index, depth=0, budget=height)
            self._cones.append(self._finalize(draft))
        return ConeGraph(ops=ops, cones=tuple(self._cones), producer=self._producer)

    def _finalize(self, draft: _Draft) -> Cone:
        """Freeze ``draft``, writing back every member whose value leaves the cone."""
        n_inputs = self._n_inputs
        fanout = self._fanout
        # Every member but the root feeds exactly one member (its parent), so
        # a member's value leaves the cone when it has another consumer.
        outputs = tuple(
            [
                op_index
                for op_index in draft.members
                if op_index == draft.root_op or fanout[n_inputs + op_index] > 1
            ]
        )
        cone = Cone(
            index=draft.index,
            root_op=draft.root_op,
            members=tuple(draft.members),
            operands=draft.operands,
            depth_from_root=draft.depth_from_root,
            outputs=outputs,
        )
        produced = {n_inputs + member for member in cone.members}
        for slot in cone.external_slots:
            if slot in produced:
                raise ValueError(
                    f"internal error: cone {cone.index} reads slot {slot} from the "
                    "register file although it produces that value itself"
                )
        for op_index in outputs:
            self._producer[n_inputs + op_index] = cone.index
        return cone


def extract_cones(
    ops: OperationList,
    max_depth: int,
    min_density: float = 1.0,
    slack_threshold: int = 2,
) -> ConeGraph:
    """Cover ``ops`` with cones of at most ``max_depth`` PE levels.

    ``max_depth`` is the number of PE levels of the target tree
    (``ProcessorConfig.n_levels``): 4 for ``Ptree`` (cones of up to 15
    operations), 1 for ``Pvect`` (single-operation cones).  ``min_density``
    is the minimum operations-per-blocked-leaf-PE ratio accepted for
    multi-level cones, and ``slack_threshold`` the scheduling slack below
    which a root is covered latency-first (see the module docstring).
    """
    if max_depth < 1:
        raise ValueError("max_depth must be >= 1")
    if min_density <= 0:
        raise ValueError("min_density must be positive")
    return _Extractor(ops, max_depth, min_density, slack_threshold).run()
