"""Golden digests of the compiler, the strict simulator and the baseline models.

Every suite network is compiled for Ptree and Pvect (plus the two scheduler
ablations on two small networks), and a SHA-256 is pinned over a canonical
serialization of

* the program: every instruction (reads, PE opcodes, writes, memory
  transaction, comment), the data-memory image and the result location;
* the :class:`~repro.compiler.scheduler.CompileStats`;
* the strict-mode :class:`~repro.processor.simulator.SimulationResult`
  (value as ``float.hex`` plus every counter).

The CPU and GPU timing models are pinned by their cycle counts (and the GPU's
bank-conflict transactions, which the coloring allocator decides).  Any
refactor of the cone extractor, the scheduler, the simulator or the baselines
must leave all of these bit for bit unchanged.

To print the digests of the current tree::

    PYTHONPATH=src python tests/test_compiler_golden.py

Regenerating the tables below means the compiled programs, the simulated
counts or the baseline cycles changed: that is a numerics change and needs
its own justification (and a note in CHANGES.md), never a side effect of a
performance refactor.
"""

from __future__ import annotations

import hashlib
import json

import pytest

from repro.baselines.cpu import simulate_cpu
from repro.baselines.gpu import simulate_gpu
from repro.compiler.driver import compile_operation_list
from repro.compiler.scheduler import ScheduleOptions
from repro.processor.config import ptree_config, pvect_config
from repro.suite.registry import benchmark_names, benchmark_operation_list

_CONFIGS = {"Ptree": ptree_config, "Pvect": pvect_config}
_ABLATIONS = {
    "no_packing": ScheduleOptions(pack_multiple_cones=False),
    "first_bank": ScheduleOptions(conflict_aware_allocation=False),
}
_ABLATION_NETWORKS = ("Banknote", "EEG-eye")
#: Pvect trees have one leaf PE, so subtree packing only matters on Ptree.
_ABLATION_CONFIGS = {"no_packing": ("Ptree",), "first_bank": ("Ptree", "Pvect")}

#: (network, machine, ablation) -> SHA-256 of the canonical compile + simulate record.
GOLDEN_COMPILES = {
    ("Netflix", "Ptree", "default"): "153b8be36662395f3f013f21e9f08e624355384694b405e4593a1a5733f17d63",
    ("Netflix", "Pvect", "default"): "ff29a5f75352c395c8decdcc5932848cc497fb1af1c7ae2f2dec998c1ab5c61d",
    ("BBC", "Ptree", "default"): "5c3b8507fc9880fde5edf0d6c00d603bdda5fcd0001c0e295c46241e8280415b",
    ("BBC", "Pvect", "default"): "b08e8c6e1627f63c7b4e87f95f449e1269ae8c695115dac0afe905312ccf04f6",
    ("Bio response", "Ptree", "default"): "61df7d9f38ae0bdf3c3edb03729413f38abed36fbcdb729ba8ad048871e64dbf",
    ("Bio response", "Pvect", "default"): "c8a812b937ed4a0ed2f957ab7cae451c80f70c36ca90417b7c5666ff7629b6de",
    ("Audio", "Ptree", "default"): "3aa5620cf44d20c010d17204cdd2e7ae87cbe3773d0b778b231bbc9eea099ffb",
    ("Audio", "Pvect", "default"): "f00cd0dd50b1868cf0736238b3e7b2799bc9faa4d17f2bdc536d9dfbc4ec31a7",
    ("CPU", "Ptree", "default"): "a8778df6e66fb79bb9e1a88c152424bdc8b009707550108d320b7b5241855765",
    ("CPU", "Pvect", "default"): "787db59061b022ef5fee765a2ddb058b9bf2eb6f1acc8380bec49c2369ab53be",
    ("MSNBC", "Ptree", "default"): "17e8f261a08feba3b7058815c342b674d5e65b918cf3fe4d05dcadfda9a6301b",
    ("MSNBC", "Pvect", "default"): "f17356991a2c0ba2a95c2a2535c329985ededb0eac8b7f55009f8d73879bdd37",
    ("EEG-eye", "Ptree", "default"): "085f66d0ae53a13309ecd00725bc9499ba2cfbb84ac65068ece188067806272c",
    ("EEG-eye", "Pvect", "default"): "95782094eacf746ed0b43eb37d18deb70d52eb4daad5d4f6a5f51b2303ae0a12",
    ("KDDCup2k", "Ptree", "default"): "a8e54c4bfef7f24c48cfe1e5a36ef868f35710f041eb15e255813134dddb9e65",
    ("KDDCup2k", "Pvect", "default"): "11e338f4e8f699bb4b6e3421df85a8cf035a064d3e43cf58769ebd479e518bb0",
    ("Banknote", "Ptree", "default"): "98700c2a4ae5ce4492d8dfe264fab16954c4f6e9ada4b27bdd7c7efc0768c85c",
    ("Banknote", "Pvect", "default"): "6ecfa956bd4e172ca5b35ca7509625c4f5be559b7e5b1451805a8c9cf1b620dd",
    ("Banknote", "Ptree", "no_packing"): "acf394175e2c414791494e3d546f8a4c791c1521692a0fb84b984033d48d121b",
    ("EEG-eye", "Ptree", "no_packing"): "47886e031094540a4f84e1b7ece7123b0f52374497c14cd7b6abe10613acf5a3",
    ("Banknote", "Ptree", "first_bank"): "64c750bbc52b565e31af7ec60213bb5baf2aa923cc66baff5ff5088168a833ad",
    ("Banknote", "Pvect", "first_bank"): "5cd7340f77772c9024457155723ea1714ac81ae09131b7001a618693661c4554",
    ("EEG-eye", "Ptree", "first_bank"): "e28774d8c952976becdf9ea39223b810704fcec95a3282c9e5156d311ebcb412",
    ("EEG-eye", "Pvect", "first_bank"): "c488d3b95d830363e3fceba0ca72deb9fc2284be24b2124c5f781a0fdcb8b79f",
}

#: network -> (CPU cycles, GPU cycles, GPU bank-conflict transactions).
GOLDEN_BASELINES = {
    "Netflix": (8792, 8501, 172),
    "BBC": (14043, 11508, 273),
    "Bio response": (14087, 8641, 246),
    "Audio": (12452, 8658, 222),
    "CPU": (5633, 4990, 143),
    "MSNBC": (4502, 4273, 127),
    "EEG-eye": (3639, 3555, 100),
    "KDDCup2k": (5644, 7404, 123),
    "Banknote": (1322, 1679, 53),
}


def _cases():
    cases = [(name, cfg, "default") for name in benchmark_names() for cfg in _CONFIGS]
    cases += [
        (name, cfg, ablation)
        for ablation in _ABLATIONS
        for name in _ABLATION_NETWORKS
        for cfg in _ABLATION_CONFIGS[ablation]
    ]
    return cases


def _program_record(program) -> list:
    instructions = [
        [
            [[*r.port, r.bank, r.reg, r.slot] for r in instruction.reads],
            [[*pe, op] for pe, op in sorted(instruction.pe_ops.items())],
            [[*w.pe, w.bank, w.reg, w.slot] for w in instruction.writes],
            None
            if instruction.mem is None
            else [
                instruction.mem.kind,
                instruction.mem.row,
                instruction.mem.reg,
                list(instruction.mem.slots or ()),
            ],
            instruction.comment,
        ]
        for instruction in program.instructions
    ]
    return [
        instructions,
        [list(row) for row in program.dmem_image],
        list(program.result_location) if program.result_location else None,
        program.result_slot,
        program.n_operations,
    ]


def compile_digest(name: str, config: str, ablation: str) -> str:
    """SHA-256 over the program, its stats and its strict simulation."""
    options = _ABLATIONS.get(ablation)
    kernel = compile_operation_list(
        benchmark_operation_list(name), _CONFIGS[config](), options
    )
    stats = kernel.stats
    result = kernel.run(strict=True)
    record = [
        _program_record(kernel.program),
        [
            stats.n_operations,
            stats.n_cones,
            stats.n_instructions,
            stats.n_loads,
            stats.n_stores,
            stats.n_copies,
            float(stats.avg_ops_per_cone).hex(),
            stats.max_live_registers,
            stats.dmem_rows_used,
        ],
        [
            float(result.value).hex(),
            result.cycles,
            result.n_instructions,
            result.n_operations,
            result.n_reads,
            result.n_writes,
            result.n_loads,
            result.n_stores,
        ],
    ]
    payload = json.dumps(record, separators=(",", ":")).encode()
    return hashlib.sha256(payload).hexdigest()


def baseline_counts(name: str) -> tuple:
    ops = benchmark_operation_list(name)
    gpu = simulate_gpu(ops)
    return (simulate_cpu(ops).cycles, gpu.cycles, gpu.n_conflict_transactions)


def test_golden_tables_cover_every_case():
    assert set(GOLDEN_COMPILES) == set(_cases())
    assert set(GOLDEN_BASELINES) == set(benchmark_names())


@pytest.mark.parametrize("name,config,ablation", _cases())
def test_compile_and_simulate_digest(name, config, ablation):
    assert compile_digest(name, config, ablation) == GOLDEN_COMPILES[(name, config, ablation)]


@pytest.mark.parametrize("name", benchmark_names())
def test_baseline_cycles(name):
    assert baseline_counts(name) == GOLDEN_BASELINES[name]


if __name__ == "__main__":
    print("GOLDEN_COMPILES = {")
    for case in _cases():
        print(f"    {case!r}: {compile_digest(*case)!r},")
    print("}")
    print("GOLDEN_BASELINES = {")
    for name in benchmark_names():
        print(f"    {name!r}: {baseline_counts(name)!r},")
    print("}")
