"""List scheduler, register allocator and code generator of the SPN compiler.

This module turns a cone cover (:mod:`repro.compiler.cones`) into an
executable VLIW :class:`~repro.processor.isa.Program`.  It performs, per
cycle, exactly the job the paper assigns to its custom compiler (Sec. IV):

* **operation placement** — cones are packed onto free, aligned subtrees of
  the PE trees (several independent cones may share one tree in one cycle);
* **register-bank allocation** — every cone output is given a register in one
  of the banks its producing PE is allowed to write; the bank is chosen to
  avoid future crossbar conflicts with the values it will be read together
  with, and to balance bank occupancy ("this allocation has to happen in
  tandem with the placement of operations on the PEs");
* **crossbar conflict avoidance** — a cone only issues in a cycle where all of
  its operand banks are still free (at most one read per bank per cycle);
  when two operands of the same future cone end up in the same bank despite
  the allocator's effort, the scheduler emits a *copy* (a pass-through PE
  configuration) that relocates one of them to another bank, which is the
  "copy data within register banks" facility of the paper's instruction set;
* **hazard-aware scheduling** — a cone may not issue before the outputs of its
  producer cones have left the PE-tree pipeline (read-after-write latency);
* **data-memory streaming** — leaf/parameter input slots are packed into
  data-memory rows and loaded, one vector per cycle, into a rotating window
  of register rows shortly before their consumers need them; rows whose
  values are all consumed are recycled (constants never need a write-back).
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from ..processor.config import ProcessorConfig
from ..processor.errors import CompilationError, ResourceError
from ..processor.isa import (
    OP_ADD,
    OP_MUL,
    OP_PASS_A,
    Instruction,
    MemOp,
    Program,
    ReadSpec,
    WriteSpec,
)
from ..spn.linearize import OP_ADD as SPN_ADD
from ..spn.linearize import OperationList
from .cones import Cone, ConeGraph, ConeOperand

__all__ = ["ScheduleOptions", "CompileStats", "Scheduler"]


@dataclass(frozen=True)
class ScheduleOptions:
    """Tunable knobs of the scheduler (defaults reproduce the paper's setup)."""

    #: Register rows (per bank) reserved as the rotating input-streaming window.
    stream_rows: int = 32
    #: Safety bound on consecutive cycles without any progress.
    max_stall_cycles: int = 256
    #: When False, at most one cone is issued per tree per cycle (ablation of
    #: subtree packing).
    pack_multiple_cones: bool = True
    #: When False, cone outputs take the first allowed bank instead of the
    #: conflict- and occupancy-aware choice (ablation of the paper's
    #: conflict-minimizing register allocation).
    conflict_aware_allocation: bool = True
    #: Candidate cones examined per cycle before giving up (keeps compile time
    #: linear; the deferred cones keep their priority).
    scan_limit: int = 96


@dataclass
class CompileStats:
    """Summary of one compilation, reported next to the benchmark results."""

    n_operations: int
    n_cones: int
    n_instructions: int
    n_loads: int
    n_stores: int
    n_copies: int
    avg_ops_per_cone: float
    max_live_registers: int
    dmem_rows_used: int

    def __str__(self) -> str:  # pragma: no cover - human readable helper
        return (
            f"ops={self.n_operations} cones={self.n_cones} "
            f"instructions={self.n_instructions} loads={self.n_loads} "
            f"copies={self.n_copies} ops/cone={self.avg_ops_per_cone:.2f} "
            f"max_live={self.max_live_registers} dmem_rows={self.dmem_rows_used}"
        )


@dataclass(slots=True)
class _LoadedRow:
    """Bookkeeping for one input row currently resident in the register file."""

    reg: int
    ready_cycle: int


@dataclass(frozen=True, slots=True)
class _ConeLayout:
    """A cone mapped onto the subtree whose leaf block starts at PE 0.

    Placing the cone at leaf block ``block_start`` shifts every PE position
    at level ``l`` by ``block_start >> l`` and every crossbar port by
    ``2 * block_start`` (see :meth:`Scheduler._layout`).
    """

    #: PE opcode assignment as ``(level, position, opcode)`` in issue order.
    pe_ops: Tuple[Tuple[int, int, str], ...]
    #: Crossbar port assignments as ``(port, operand slot)``.
    ports: Tuple[Tuple[int, int], ...]
    #: Written members as ``(level, position, destination slot)``.
    outputs: Tuple[Tuple[int, int, int], ...]


#: Ready cycle of a value that has not been produced yet.
_NEVER = 1 << 60


class Scheduler:
    """Schedules a :class:`ConeGraph` onto a :class:`ProcessorConfig`."""

    def __init__(
        self,
        cone_graph: ConeGraph,
        config: ProcessorConfig,
        options: Optional[ScheduleOptions] = None,
    ) -> None:
        self._graph = cone_graph
        self._ops = cone_graph.ops
        self._n_inputs = cone_graph.ops.n_inputs
        self._config = config
        self._options = options or ScheduleOptions()
        if self._options.stream_rows >= config.bank_depth:
            raise ResourceError(
                "stream_rows must leave at least one register row for intermediates"
            )
        self._stream_base = config.bank_depth - self._options.stream_rows
        self._windows = config.write_windows
        self._latency = config.level_latencies

    # ------------------------------------------------------------------ #
    # Public entry point
    # ------------------------------------------------------------------ #
    def run(self) -> Tuple[Program, CompileStats]:
        ops = self._ops
        if ops.n_operations == 0:
            program = Program(
                instructions=[],
                dmem_image=[],
                result_location=None,
                result_slot=ops.root_slot,
                n_operations=0,
            )
            stats = CompileStats(0, 0, 0, 0, 0, 0, 0.0, 0, 0)
            return program, stats

        self._prepare()
        instructions: List[Instruction] = []
        cycle = 0
        stall_cycles = 0
        max_cycles = 32 * self._graph.n_cones + 8 * len(self._input_rows) + 2048
        while self._n_scheduled < self._graph.n_cones:
            if cycle > max_cycles:
                raise CompilationError(
                    f"scheduler exceeded {max_cycles} cycles; "
                    f"{self._graph.n_cones - self._n_scheduled} cones left.\n"
                    + self._blocked_report(cycle)
                )
            instruction = self._schedule_cycle(cycle)
            instructions.append(instruction)
            # Only PE activity counts as progress: an endless stream of loads
            # with no cone ever issuing is a scheduling failure, not progress.
            if instruction.pe_ops:
                stall_cycles = 0
            else:
                stall_cycles += 1
                if stall_cycles > self._options.max_stall_cycles:
                    raise CompilationError(
                        f"no cone issued for {stall_cycles} cycles at cycle {cycle}; "
                        "the SPN likely does not fit the machine configuration.\n"
                        + self._blocked_report(cycle)
                    )
            cycle += 1

        root_slot = ops.root_slot
        program = Program(
            instructions=instructions,
            dmem_image=self._dmem_image,
            result_location=self._current_cell(root_slot),
            result_slot=root_slot,
            n_operations=ops.n_operations,
        )
        stats = CompileStats(
            n_operations=ops.n_operations,
            n_cones=self._graph.n_cones,
            n_instructions=len(instructions),
            n_loads=program.n_loads,
            n_stores=program.n_stores,
            n_copies=self._n_copies,
            avg_ops_per_cone=self._graph.average_ops_per_cone(),
            max_live_registers=self._max_live,
            dmem_rows_used=len(self._input_rows),
        )
        return program, stats

    # ------------------------------------------------------------------ #
    # Preparation
    # ------------------------------------------------------------------ #
    def _prepare(self) -> None:
        graph, config = self._graph, self._config

        # Reference counts: how many operand references each slot still has,
        # and which slots are read together (the crossbar conflict graph the
        # bank allocator tries to keep colorable).
        self._remaining_refs: Dict[int, int] = {}
        self._conflicts: Dict[int, Set[int]] = {}
        for cone in graph.cones:
            for slot in cone.external_slots:
                self._remaining_refs[slot] = self._remaining_refs.get(slot, 0) + 1
            unique = cone.operand_slots
            if len(unique) > 1:
                for a in unique:
                    partners = self._conflicts.setdefault(a, set())
                    partners.update(unique)
                    partners.discard(a)

        # Cone dependencies and scheduling priorities.
        self._preds_left: List[int] = [len(graph.predecessors(c)) for c in graph.cones]
        self._priority = graph.critical_path_priorities()

        # Candidate heap of cones whose producer cones have all been issued.
        self._candidates: List[Tuple[int, int]] = []
        for cone in graph.cones:
            if self._preds_left[cone.index] == 0:
                heapq.heappush(self._candidates, (-self._priority[cone.index], cone.index))

        # Value tracking: where each produced or relocated slot lives.
        self._value_location: Dict[int, Tuple[int, int]] = {}
        self._value_ready: Dict[int, int] = {}
        self._relocated: Dict[int, Tuple[int, int]] = {}
        self._relocate_ready: Dict[int, int] = {}
        self._copy_requests: Set[int] = set()
        self._n_copies = 0
        self._n_scheduled = 0

        # Register file state: free intermediate registers per bank.
        self._free_regs: List[List[int]] = [
            list(range(self._stream_base - 1, -1, -1)) for _ in range(config.n_banks)
        ]
        self._live_registers = 0
        self._max_live = 0
        # Write-port reservations at commit cycles, keyed by
        # ``commit * n_banks + bank``.
        self._write_ports: Set[int] = set()

        # Input streaming structures.
        self._build_input_rows()
        self._loaded_rows: Dict[int, _LoadedRow] = {}
        self._free_stream_regs: List[int] = list(
            range(config.bank_depth - 1, self._stream_base - 1, -1)
        )
        self._wanted_rows: Set[int] = set()
        self._critical_rows: Set[int] = set()

    def _build_input_rows(self) -> None:
        """Pack referenced input slots into data-memory rows.

        Slots are laid out in the order their consumer cones can first be
        scheduled (earliest dependence level first, critical-path cones
        breaking ties), so rows are consumed roughly in the order they are
        loaded, and then repaired so that two inputs read by the same cone do
        not share a lane — a lane maps directly to a register bank, so sharing
        one would be a guaranteed crossbar conflict.
        """
        config, n_inputs = self._config, self._n_inputs
        asap = self._graph.asap_levels()
        first_use: Dict[int, Tuple[int, int, int]] = {}
        for cone in self._graph.cones:
            key = (asap[cone.index], -self._priority[cone.index], cone.index)
            for slot in cone.operand_slots:
                if slot < n_inputs and (slot not in first_use or key < first_use[slot]):
                    first_use[slot] = key
        ordered = sorted(first_use, key=lambda s: (first_use[s], s))
        rows: List[List[Optional[int]]] = []
        self._row_of_slot: Dict[int, Tuple[int, int]] = {}
        for i, slot in enumerate(ordered):
            row_index, lane = divmod(i, config.n_banks)
            if lane == 0:
                rows.append([None] * config.n_banks)
            rows[row_index][lane] = slot
            self._row_of_slot[slot] = (row_index, lane)
        self._repair_input_lanes(rows)
        if len(rows) > config.dmem_rows:
            raise ResourceError(
                f"the SPN needs {len(rows)} data-memory rows for its inputs, but the "
                f"machine only has {config.dmem_rows}"
            )
        self._input_rows = rows
        self._dmem_image = [list(row) for row in rows]
        self._row_refs: List[int] = [0] * len(rows)
        for slot, count in self._remaining_refs.items():
            if slot < n_inputs:
                row_index, _ = self._row_of_slot[slot]
                self._row_refs[row_index] += count
        self._next_row_cursor = 0

    def _repair_input_lanes(self, rows: List[List[Optional[int]]]) -> None:
        """Swap lanes so co-read input slots do not collide on a bank."""
        n_inputs = self._n_inputs
        for cone in self._graph.cones:
            input_slots = sorted(s for s in cone.operand_slots if s < n_inputs)
            used_lanes: Dict[int, int] = {}
            for slot in input_slots:
                row_index, lane = self._row_of_slot[slot]
                if lane not in used_lanes:
                    used_lanes[lane] = slot
                    continue
                # Find a free lane (not used by this cone) to swap into.
                target_lane = next(
                    (l for l in range(self._config.n_banks) if l not in used_lanes), None
                )
                if target_lane is None:
                    break  # more co-read inputs than banks; the copy path handles it
                other = rows[row_index][target_lane]
                rows[row_index][lane], rows[row_index][target_lane] = other, slot
                self._row_of_slot[slot] = (row_index, target_lane)
                if other is not None:
                    self._row_of_slot[other] = (row_index, lane)
                used_lanes[target_lane] = slot

    # ------------------------------------------------------------------ #
    # Per-cycle scheduling
    # ------------------------------------------------------------------ #
    def _schedule_cycle(self, cycle: int) -> Instruction:
        config = self._config
        instruction = Instruction(comment=f"cycle {cycle}")
        # Per-cycle resource state.
        read_cells: Dict[int, Tuple[int, int]] = {}  # bank -> cell being read
        leaf_busy: List[int] = [0] * config.n_trees  # bit p set: leaf PE p taken
        trees_used: Set[int] = set()

        # Issue the memory transaction first so loads start as early as possible.
        mem_op = self._plan_memory(cycle)
        if mem_op is not None:
            instruction.mem = mem_op

        # Relocation copies requested by blocked cones go first: they are tiny
        # and unblock higher-priority work.
        for slot in sorted(self._copy_requests):
            self._try_relocate(slot, cycle, instruction, read_cells, leaf_busy)

        deferred: List[Tuple[int, int]] = []
        blocked_rows: Set[int] = set()
        critical_rows: Set[int] = set()
        cone_rows: Set[int] = set()
        n_placed = 0
        free_leaf_slots = config.n_trees * config.leaf_pes_per_tree
        n_banks = config.n_banks
        scan_limit = self._options.scan_limit
        candidates = self._candidates
        cones = self._graph.cones
        readable_cells = self._readable_cells
        examined = 0
        while (
            candidates
            and free_leaf_slots > 0
            and len(read_cells) < n_banks
            and examined < scan_limit
        ):
            item = heapq.heappop(candidates)
            examined += 1
            cone = cones[item[1]]
            # Step 1 of the placement, done here: most candidates are still
            # waiting on an operand.
            operand_cells = readable_cells(cone.operand_slots, cycle, cone_rows)
            if operand_cells is not None and self._try_place(
                cone, operand_cells, cycle, instruction, read_cells, leaf_busy, trees_used
            ):
                free_leaf_slots -= 1 << cone.height
                n_placed += 1
            else:
                deferred.append(item)
                if not critical_rows and cone_rows:
                    # Highest-priority cone that is blocked on unloaded input
                    # rows: these rows are protected from eviction so the cone
                    # is guaranteed to make progress eventually.
                    critical_rows = set(cone_rows)
            if cone_rows:
                blocked_rows |= cone_rows
                cone_rows.clear()
        for item in deferred:
            heapq.heappush(candidates, item)

        self._wanted_rows = blocked_rows
        if n_placed > 0:
            self._critical_rows = critical_rows
        else:
            # Nothing issued: keep protecting what we already protect so the
            # oldest blocked cone's rows cannot be thrashed out of the window.
            self._critical_rows |= critical_rows
        return instruction

    def _try_place(
        self,
        cone: Cone,
        operand_cells: Dict[int, Tuple[int, int]],
        cycle: int,
        instruction: Instruction,
        read_cells: Dict[int, Tuple[int, int]],
        leaf_busy: List[int],
        trees_used: Set[int],
    ) -> bool:
        """Issue ``cone`` this cycle if the machine allows it.

        Step 1, every operand readable this cycle, has already passed:
        ``operand_cells`` (from :meth:`_readable_cells`) holds their cells.
        """
        # 2. Crossbar: each operand bank must carry a single cell, both within
        #    this cone and against reads already planned this cycle.  A clash
        #    within the cone takes precedence: it requests a relocation copy.
        cone_banks: Dict[int, Tuple[int, int]] = {}
        busy_bank = False
        for slot, cell in operand_cells.items():
            bank = cell[0]
            clash = cone_banks.get(bank)
            if clash is not None and clash != cell:
                # Two operands of this cone live in the same bank: request a
                # relocation copy for one of them and give up for now.
                self._copy_requests.add(slot)
                return False
            cone_banks[bank] = cell
            if not busy_bank:
                current = read_cells.get(bank)
                busy_bank = current is not None and current != cell
        if busy_bank:
            return False

        # 3. Find a free, aligned subtree block on some tree where every
        #    output of the cone can be written: each written member needs a
        #    bank inside its PE's window with a free register and a free write
        #    port at its commit cycle.
        block_size = 1 << cone.height
        block_mask = (1 << block_size) - 1
        layout = None
        pack = self._options.pack_multiple_cones
        config = self._config
        placement = None
        for tree in range(config.n_trees):
            if not pack and tree in trees_used:
                continue
            busy = leaf_busy[tree]
            for block_start in range(0, config.leaf_pes_per_tree, block_size):
                if busy & (block_mask << block_start):
                    continue
                if layout is None:
                    layout = self._layout(cone)
                allocations = self._allocate_outputs(
                    layout.outputs, tree, block_start, cycle
                )
                if allocations is None:
                    continue
                placement = (tree, block_start, allocations)
                break
            if placement is not None:
                break
        if placement is None:
            return False
        tree, block_start, allocations = placement

        # ---- Commit the placement -------------------------------------- #
        leaf_busy[tree] |= block_mask << block_start
        trees_used.add(tree)
        read_cells.update(cone_banks)

        pe_ops = instruction.pe_ops
        for level, pos, opcode in layout.pe_ops:
            pe_ops[(tree, level, pos + (block_start >> level))] = opcode
        reads = instruction.reads
        port_base = 2 * block_start
        for port, slot in layout.ports:
            bank, reg = operand_cells[slot]
            reads.append(
                ReadSpec(port=(tree, port_base + port), bank=bank, reg=reg, slot=slot)
            )
        writes = instruction.writes
        for pe, bank, reg, commit, dest_slot in allocations:
            writes.append(WriteSpec(pe=pe, bank=bank, reg=reg, slot=dest_slot))
            self._value_location[dest_slot] = (bank, reg)
            self._value_ready[dest_slot] = commit
        self._live_registers += len(allocations)

        self._n_scheduled += 1
        self._max_live = max(self._max_live, self._live_registers)

        # Release operand references.
        for slot in cone.external_slots:
            self._release_reference(slot)
        # Wake up consumer cones.
        preds_left = self._preds_left
        for consumer in self._graph.consumers(cone):
            preds_left[consumer] -= 1
            if preds_left[consumer] == 0:
                heapq.heappush(
                    self._candidates, (-self._priority[consumer], consumer)
                )
        return True

    # ------------------------------------------------------------------ #
    # Placement helpers
    # ------------------------------------------------------------------ #
    def _allocate_outputs(
        self,
        outputs: Tuple[Tuple[int, int, int], ...],
        tree: int,
        block_start: int,
        cycle: int,
    ) -> Optional[List[Tuple[Tuple[int, int, int], int, int, int, int]]]:
        """Pick a (bank, register) for every value the cone writes back.

        ``outputs`` are the layout's written members, placed at leaf block
        ``block_start`` of ``tree``.  Returns ``[(pe, bank, reg,
        commit_cycle, dest_slot), ...]`` with each register taken and each
        write port reserved, or ``None`` when some output cannot be placed,
        in which case every tentative reservation is undone.
        """
        windows = self._windows[tree]
        latency = self._latency
        n_banks = self._config.n_banks
        free_regs = self._free_regs
        write_ports = self._write_ports
        conflict_aware = self._options.conflict_aware_allocation
        allocations: List[Tuple[Tuple[int, int, int], int, int, int, int]] = []
        for level, rel_pos, dest_slot in outputs:
            pos = rel_pos + (block_start >> level)
            commit = cycle + latency[level]
            port_base = commit * n_banks
            # Ports are reserved as banks are chosen, so two outputs of this
            # cone cannot commit to one bank in the same cycle either.
            candidates = [
                bank
                for bank in windows[level][pos]
                if free_regs[bank] and port_base + bank not in write_ports
            ]
            if not candidates:
                for _, bank, reg, reserved, _ in allocations:
                    free_regs[bank].append(reg)
                    write_ports.discard(reserved * n_banks + bank)
                return None
            if conflict_aware:
                conflict_banks = self._conflict_banks(dest_slot)
                pool = [b for b in candidates if b not in conflict_banks] or candidates
                # The bank with the most free registers; the first on ties.
                bank = pool[0]
                most = len(free_regs[bank])
                for other in pool[1:]:
                    if len(free_regs[other]) > most:
                        bank, most = other, len(free_regs[other])
            else:
                bank = candidates[0]
            reg = free_regs[bank].pop()
            write_ports.add(port_base + bank)
            allocations.append(((tree, level, pos), bank, reg, commit, dest_slot))
        return allocations

    def _conflict_banks(self, slot: int) -> Set[int]:
        """Banks currently holding a value ``slot`` is read together with."""
        banks = set()
        for other in self._conflicts.get(slot, ()):
            cell = self._current_cell(other)
            if cell is not None:
                banks.add(cell[0])
        return banks

    def _current_cell(self, slot: int) -> Optional[Tuple[int, int]]:
        """Register-file cell currently assigned to ``slot`` (ignoring timing)."""
        if slot in self._relocated:
            return self._relocated[slot]
        if slot < self._n_inputs:
            position = self._row_of_slot.get(slot)
            if position is None:
                return None
            loaded = self._loaded_rows.get(position[0])
            if loaded is None:
                return None
            return position[1], loaded.reg
        return self._value_location.get(slot)

    def _readable_cells(
        self, slots: Sequence[int], cycle: int, blocked_rows: Set[int]
    ) -> Optional[Dict[int, Tuple[int, int]]]:
        """The cell of every slot in ``slots`` if all are readable at ``cycle``.

        Returns ``None`` at the first slot that is not; an input slot whose
        row is not resident (or still loading) adds that row to
        ``blocked_rows``.
        """
        relocated = self._relocated
        n_inputs = self._n_inputs
        cells: Dict[int, Tuple[int, int]] = {}
        for slot in slots:
            if slot in relocated:
                if self._relocate_ready[slot] > cycle:
                    return None
                cell = relocated[slot]
            elif slot < n_inputs:
                row_index, lane = self._row_of_slot[slot]
                loaded = self._loaded_rows.get(row_index)
                if loaded is None or loaded.ready_cycle > cycle:
                    blocked_rows.add(row_index)
                    return None
                cell = (lane, loaded.reg)
            elif self._value_ready.get(slot, _NEVER) > cycle:
                return None
            else:
                cell = self._value_location.get(slot)
                if cell is None:
                    return None
            cells[slot] = cell
        return cells

    def _slot_cell(self, slot: int, cycle: int) -> Optional[Tuple[int, int]]:
        """Cell holding ``slot`` if it is readable at ``cycle``, else ``None``."""
        cells = self._readable_cells((slot,), cycle, set())
        return None if cells is None else cells[slot]

    def _release_reference(self, slot: int) -> None:
        remaining = self._remaining_refs[slot] - 1
        self._remaining_refs[slot] = remaining
        if remaining > 0:
            return
        if slot == self._ops.root_slot:
            return
        if slot in self._relocated:
            bank, reg = self._relocated[slot]
            self._free_regs[bank].append(reg)
            self._live_registers -= 1
            return
        if slot < self._n_inputs:
            row_index, _ = self._row_of_slot[slot]
            self._row_refs[row_index] -= 1
            return
        location = self._value_location.get(slot)
        if location is not None:
            bank, reg = location
            self._free_regs[bank].append(reg)
            self._live_registers -= 1

    def _blocked_report(self, cycle: int) -> str:
        """Explain why the highest-priority candidate cones cannot issue.

        Included in scheduler error messages so that configuration problems
        (register pressure, missing rows, permanent conflicts) are actionable.
        """
        lines = [f"blocked-candidate report at cycle {cycle}:"]
        snapshot = heapq.nsmallest(5, self._candidates)
        for priority, cone_index in snapshot:
            cone = self._graph.cones[cone_index]
            reasons = []
            for slot in sorted(cone.operand_slots):
                cell = self._slot_cell(slot, cycle)
                if cell is None:
                    if slot < self._n_inputs:
                        row_index, _ = self._row_of_slot[slot]
                        loaded = row_index in self._loaded_rows
                        reasons.append(
                            f"input slot {slot} (row {row_index}, "
                            f"{'loading' if loaded else 'not loaded'})"
                        )
                    else:
                        reasons.append(f"value slot {slot} not ready")
            free_regs = sum(len(regs) for regs in self._free_regs)
            lines.append(
                f"  cone {cone_index} (priority {-priority}, depth {cone.depth}): "
                + (", ".join(reasons) if reasons else "operands ready")
                + f"; free intermediate registers: {free_regs}"
            )
        if not snapshot:
            lines.append("  (no candidate cones; the dependence graph may be cyclic)")
        return "\n".join(lines)

    # ------------------------------------------------------------------ #
    # Relocation copies (crossbar conflict resolution)
    # ------------------------------------------------------------------ #
    def _try_relocate(
        self,
        slot: int,
        cycle: int,
        instruction: Instruction,
        read_cells: Dict[int, Tuple[int, int]],
        leaf_busy: List[int],
    ) -> bool:
        """Copy ``slot`` into a conflict-free bank via a pass-through PE."""
        config = self._config
        if self._remaining_refs.get(slot, 0) <= 0:
            self._copy_requests.discard(slot)
            return False
        source = self._slot_cell(slot, cycle)
        if source is None:
            return False
        current = read_cells.get(source[0])
        if current is not None and current != source:
            return False
        conflict_banks = self._conflict_banks(slot)
        conflict_banks.add(source[0])
        commit = cycle + self._latency[0]
        port_base = commit * config.n_banks
        for tree in range(config.n_trees):
            windows = self._windows[tree][0]
            for pos in range(config.leaf_pes_per_tree):
                if leaf_busy[tree] >> pos & 1:
                    continue
                if (tree, 0, pos) in instruction.pe_ops:
                    continue
                candidates = [
                    bank
                    for bank in windows[pos]
                    if bank not in conflict_banks
                    and self._free_regs[bank]
                    and port_base + bank not in self._write_ports
                ]
                if not candidates:
                    continue
                bank = max(candidates, key=lambda b: len(self._free_regs[b]))
                reg = self._free_regs[bank].pop()
                leaf_busy[tree] |= 1 << pos
                read_cells[source[0]] = source
                self._write_ports.add(port_base + bank)
                instruction.pe_ops[(tree, 0, pos)] = OP_PASS_A
                instruction.reads.append(
                    ReadSpec(port=(tree, 2 * pos), bank=source[0], reg=source[1], slot=slot)
                )
                instruction.writes.append(
                    WriteSpec(pe=(tree, 0, pos), bank=bank, reg=reg, slot=slot)
                )
                # Free the old home of the value and record the new one.
                self._free_old_home(slot)
                self._relocated[slot] = (bank, reg)
                self._relocate_ready[slot] = commit
                self._live_registers += 1
                self._max_live = max(self._max_live, self._live_registers)
                self._copy_requests.discard(slot)
                self._n_copies += 1
                return True
        return False

    def _free_old_home(self, slot: int) -> None:
        """Release the storage a slot occupied before it was relocated."""
        if slot in self._relocated:
            bank, reg = self._relocated[slot]
            self._free_regs[bank].append(reg)
            self._live_registers -= 1
            return
        if slot < self._n_inputs:
            # Future references will read the relocated copy, so the streaming
            # row no longer needs to stay resident for this slot.
            row_index, _ = self._row_of_slot[slot]
            self._row_refs[row_index] -= self._remaining_refs.get(slot, 0)
            return
        location = self._value_location.pop(slot, None)
        if location is not None:
            bank, reg = location
            self._free_regs[bank].append(reg)
            self._live_registers -= 1

    # ------------------------------------------------------------------ #
    # Input streaming
    # ------------------------------------------------------------------ #
    def _plan_memory(self, cycle: int) -> Optional[MemOp]:
        """Decide the (at most one) vector load issued this cycle."""
        row_index = self._next_row_to_load()
        if row_index is None:
            return None
        reg = self._acquire_stream_reg(row_index, cycle)
        if reg is None:
            return None
        self._loaded_rows[row_index] = _LoadedRow(
            reg=reg, ready_cycle=cycle + self._config.load_latency
        )
        slots = tuple(self._input_rows[row_index])
        return MemOp(kind="load", row=row_index, reg=reg, slots=slots)

    def _next_row_to_load(self) -> Optional[int]:
        """Pick the next unloaded input row, preferring rows blocking ready cones."""
        for row_index in sorted(self._critical_rows) + sorted(self._wanted_rows):
            if row_index not in self._loaded_rows and self._row_refs[row_index] > 0:
                return row_index
        # Otherwise prefetch rows in first-use order.
        while self._next_row_cursor < len(self._input_rows):
            row_index = self._next_row_cursor
            if row_index in self._loaded_rows or self._row_refs[row_index] == 0:
                self._next_row_cursor += 1
                continue
            return row_index
        # All rows past the cursor handled; look for evicted rows that became
        # needed again (reload case).
        for row_index, refs in enumerate(self._row_refs):
            if refs > 0 and row_index not in self._loaded_rows:
                return row_index
        return None

    def _acquire_stream_reg(self, for_row: int, cycle: int) -> Optional[int]:
        """Find a register row for a new load, evicting a dead row if needed."""
        if self._free_stream_regs:
            return self._free_stream_regs.pop()
        # Recently loaded rows keep a grace period so a row cannot be thrown
        # out again before the cone that asked for it had a chance to issue.
        grace = self._config.load_latency + 4

        def evictable(row_index: int) -> bool:
            loaded = self._loaded_rows[row_index]
            return loaded.ready_cycle + grace <= cycle

        # First choice: resident rows with no outstanding references.
        for row_index, loaded in list(self._loaded_rows.items()):
            if self._row_refs[row_index] == 0 and evictable(row_index):
                del self._loaded_rows[row_index]
                return loaded.reg
        # As a last resort (only when the blocked row is genuinely needed now),
        # evict a resident row; constants can always be reloaded from the data
        # memory later.  Rows needed by the highest-priority blocked cone are
        # protected so that cone is guaranteed to issue eventually — it needs
        # at most one row per input port, which is always fewer than the
        # streaming window, so an evictable row eventually exists.
        if for_row not in self._wanted_rows and for_row not in self._critical_rows:
            return None
        protected = self._critical_rows | {for_row}
        candidates = [
            row_index
            for row_index in self._loaded_rows
            if row_index not in protected and evictable(row_index)
        ]
        if not candidates:
            return None
        # Prefer a row nobody is currently waiting for; among those, the one
        # that has been resident the longest.
        not_wanted = [r for r in candidates if r not in self._wanted_rows]
        pool = not_wanted or candidates
        victim = min(pool, key=lambda r: self._loaded_rows[r].ready_cycle)
        reg = self._loaded_rows[victim].reg
        del self._loaded_rows[victim]
        # The victim may be needed again later; it will simply be reloaded.
        self._next_row_cursor = min(self._next_row_cursor, victim)
        return reg

    # ------------------------------------------------------------------ #
    # Cone embedding (PE placement and crossbar reads)
    # ------------------------------------------------------------------ #
    def _layout(self, cone: Cone) -> _ConeLayout:
        """Map a cone onto the subtree anchored at leaf PE 0.

        Records the PE opcode assignment, the crossbar port assignments
        (``(port, operand slot)`` pairs) and, for every written member, the
        (level, position) of the PE that computes it.  External operands of
        operations above level 0 are routed up through pass-through PEs along
        the left spine of the corresponding subtree, as the datapath requires.
        """
        operations = self._ops.operations
        operands = cone.operands
        pe_ops: Dict[Tuple[int, int], str] = {}
        ports: List[Tuple[int, int]] = []
        position: Dict[int, Tuple[int, int]] = {}
        # Depth first, the left subtree before the right one.
        stack = [(ConeOperand.internal(cone.root_op), cone.height, 0)]
        while stack:
            operand, level, pos = stack.pop()
            if operand.kind == "external":
                leaf_pos = pos << level
                for lvl in range(level, 0, -1):
                    pe_ops[(lvl, pos << (level - lvl))] = OP_PASS_A
                pe_ops.setdefault((0, leaf_pos), OP_PASS_A)
                ports.append((2 * leaf_pos, operand.slot))
                continue
            op_index = operand.op_index
            pe_ops[(level, pos)] = OP_ADD if operations[op_index].op == SPN_ADD else OP_MUL
            position[op_index] = (level, pos)
            left, right = operands[op_index]
            if level > 0:
                stack.append((right, level - 1, 2 * pos + 1))
                stack.append((left, level - 1, 2 * pos))
                continue
            for port_offset, child in enumerate((left, right)):
                if child.kind != "external":
                    raise CompilationError(
                        f"cone {cone.index}: operation {op_index} placed at a leaf "
                        "PE but has an internal operand"
                    )
                ports.append((2 * pos + port_offset, child.slot))
        n_inputs = self._n_inputs
        return _ConeLayout(
            pe_ops=tuple([(level, pos, op) for (level, pos), op in pe_ops.items()]),
            ports=tuple(ports),
            outputs=tuple(
                [(*position[op_index], n_inputs + op_index) for op_index in cone.outputs]
            ),
        )
