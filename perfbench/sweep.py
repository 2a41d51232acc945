"""Design-sweep phase: the Fig. 4 grid, run serially with strict verification.

Each grid runs ``repro.experiments.platforms.run_suite`` on each of the
nine suite networks in turn, on CPU, GPU, Pvect and Ptree.  The processor
engines verify every transported value against the reference evaluation
(strict simulation, the engines' default), so a network that returns at all
computed the right answers.  Simulated statistics are deterministic: every
grid of a run must reproduce the first grid's ops/cycle and cycle counts
exactly.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Dict, List

from common import Timer, geomean, median

#: The paper's peak Ptree throughput and its margin over the Jetson TX2 GPU.
PAPER_PTREE_OPS_PER_CYCLE = 11.6
PAPER_SPEEDUP_VS_GPU = 12.0


class SweepPhase:
    name = "sweep"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        from repro.experiments import platforms
        from repro.suite import registry

        self.platforms = platforms
        self.registry = registry
        self.names = registry.benchmark_names()

    def setup(self, timer: Timer) -> tuple:
        """Build the nine SPNs and lower them to operation lists; (CPU s, wall s)."""
        registry = self.registry
        registry.build_benchmark.cache_clear()
        registry.benchmark_operation_list.cache_clear()

        def lower():
            for name in self.names:
                registry.benchmark_operation_list(name)

        _, cpu, wall = timer.time(lower)
        return cpu, wall

    def measure(self, seconds: float) -> None:
        self.ctx.set_phase("sweep")
        self.grid_s: List[float] = []  # wall seconds
        self.grid_cpu: List[float] = []
        self.grids: List[Dict[str, Dict[str, tuple]]] = []
        self.failed = 0
        self.timer = Timer()
        start = perf_counter()
        while not self.grid_s or perf_counter() - start < seconds:
            # One network at a time, so the timer samples the host between them.
            grid, cpu, wall = {}, 0.0, 0.0
            for name in self.names:
                row, c, w = self.timer.time(partial(self.run_network, name))
                cpu, wall = cpu + c, wall + w
                if row:
                    grid[name] = {p: (r.ops_per_cycle, r.cycles) for p, r in row.items()}
            self.grid_cpu.append(cpu)
            self.grid_s.append(wall)
            if len(grid) == len(self.names):
                self.grids.append(grid)

    def run_network(self, name: str) -> dict:
        try:
            return self.platforms.run_suite([name])[name]
        except Exception as exc:  # a failed strict verification fails its cells
            self.ctx.log(f"sweep {name} failed: {exc!r}")
            self.failed += len(self.platforms.DEFAULT_PLATFORMS)
            return {}

    def check(self) -> tuple:
        """(attempted, failed) cells; repeats must match the first grid exactly."""
        cells = len(self.names) * 4
        attempted = cells * len(self.grid_s)
        failed = self.failed
        if self.grids:
            first = self.ctx.expect("sweep", self.grids[0])
            for grid in self.grids:
                for name, row in grid.items():
                    failed += sum(row[p] != first[name][p] for p in row)
        return attempted, failed

    def release(self) -> None:
        """Nothing to drop: the suite caches its networks for the process."""

    def ops_per_cycle(self, platform: str) -> List[float]:
        return [self.grids[0][name][platform][0] for name in self.names]

    def metrics(self) -> Dict[str, float]:
        if not self.grids:
            return {}
        ptree = self.ops_per_cycle("Ptree")
        gpu = self.ops_per_cycle("GPU")
        return {
            "sweep_s": median(self.grid_cpu),  # at nominal host speed: see common.Timer
            "wall.sweep_s": median(self.grid_s),
            "ptree_ops_per_cycle": geomean(ptree),
            "pvect_ops_per_cycle": geomean(self.ops_per_cycle("Pvect")),
            "ptree_speedup_vs_gpu": geomean(p / g for p, g in zip(ptree, gpu)),
        }

    def paper_note(self) -> str:
        if not self.grids:
            return "sweep: no grid completed"
        m = self.metrics()
        return (
            f"Ptree peak {max(self.ops_per_cycle('Ptree')):.2f} ops/cycle "
            f"(paper: {PAPER_PTREE_OPS_PER_CYCLE}); geomean "
            f"{m['ptree_ops_per_cycle']:.2f}; Ptree vs GPU model "
            f"{m['ptree_speedup_vs_gpu']:.2f}x (paper: >= {PAPER_SPEEDUP_VS_GPU:g}x "
            f"vs Jetson TX2). The CPU and GPU baselines are analytic models never "
            f"validated against a Jetson TX2, so no error figure is given."
        )
