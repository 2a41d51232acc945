"""Offline bulk phase: one closed-loop caller of ``InferenceSession.run``.

The model is the BBC artifact, the suite's largest tape (about 10k slots).
Batches of ``ROWS`` rows cycle through ``Likelihood`` (one linear pass),
``LogLikelihood`` (one log pass) and ``Conditional`` (two log passes), so a
change that speeds one domain at the other's cost shows in one of the two
throughput metrics.  ``DISTINCT`` different batches per kind are generated
from the seed before timing.
"""

from __future__ import annotations

from functools import partial
from time import perf_counter
from typing import Dict, List

import numpy as np

from common import Timer, median

MODEL = "BBC"
ROWS = 2048
DISTINCT = 2
KINDS = ("likelihood", "log_likelihood", "conditional")
#: Rows of each batch checked against the python reference walk.
PREFIX = 16
#: Cycles (one batch of each kind) a run makes at least.
MIN_CYCLES = 3


class BulkPhase:
    name = "bulk"

    def __init__(self, ctx) -> None:
        self.ctx = ctx
        self.path = ctx.artifact_path(MODEL)

    def setup(self, timer: Timer) -> tuple:
        """Load the artifact file and build the session; (CPU s, wall s)."""
        def load():
            artifact = self.ctx.load_artifact(self.path)
            return artifact, artifact.session()

        (self.artifact, self.session), cpu, wall = timer.time(load)
        return cpu, wall

    def _batches(self) -> Dict[str, List[object]]:
        api, rng, n_vars = self.ctx.api, self.ctx.rng, self.artifact.n_vars
        batches: Dict[str, List[object]] = {kind: [] for kind in KINDS}
        for _ in range(DISTINCT):
            evidence = rng.integers(-1, 2, size=(ROWS, n_vars), dtype=np.int8)
            pick = (evidence < 0) & (rng.random((ROWS, n_vars)) < 0.3)
            query = np.where(pick, rng.integers(0, 2, size=(ROWS, n_vars)), -1)
            batches["likelihood"].append(api.Likelihood(evidence=evidence))
            batches["log_likelihood"].append(api.LogLikelihood(evidence=evidence))
            batches["conditional"].append(
                api.Conditional(query=query, evidence=evidence)
            )
        return batches

    def measure(self, seconds: float) -> None:
        self.batches = self._batches()
        session = self.session
        self.times: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        self.wall: Dict[str, List[float]] = {kind: [] for kind in KINDS}
        self.passes: Dict[str, int] = {kind: 0 for kind in KINDS}
        self.first: Dict[tuple, np.ndarray] = {}
        self.calls: Dict[tuple, int] = {}
        self.mismatched = 0
        self.timer = Timer()
        self.ctx.set_phase("bulk")
        start = perf_counter()
        cycle = 0
        while cycle < MIN_CYCLES or perf_counter() - start < seconds:
            index = cycle % DISTINCT
            for kind in KINDS:
                query = self.batches[kind][index]
                before = session.evaluations
                result, cpu, wall = self.timer.time(partial(session.run, query))
                self.times[kind].append(cpu)
                self.wall[kind].append(wall)
                self.passes[kind] += session.evaluations - before
                self.calls[kind, index] = self.calls.get((kind, index), 0) + 1
                # Every repeat of a batch must reproduce its first answer bit for bit.
                first = self.first.setdefault((kind, index), result)
                if first is not result and not np.array_equal(first, result, equal_nan=True):
                    self.mismatched += 1
            cycle += 1
        plan = session.plan(self.batches["log_likelihood"][0])
        self.pass_bytes = plan.peak_bytes_per_row * plan.n_rows  # computed, not measured
        self.peak_slots = plan.peak_slots

    def check(self) -> tuple:
        """(attempted, failed): first answers vs the python reference walk."""
        ctx = self.ctx
        reference = ctx.api.InferenceSession(
            self.artifact.spn, engine="python", n_vars=self.artifact.n_vars
        )
        failed = self.mismatched
        for (kind, index), result in self.first.items():
            query = self.batches[kind][index]
            head = type(query).join_rows(query.split_rows()[:PREFIX], **query.params())
            expected = ctx.expect("bulk", reference.run(head))
            if not np.allclose(result[:PREFIX], expected, rtol=1e-9, atol=0.0, equal_nan=True):
                # Every call on this batch returned the wrong answer.
                failed += self.calls[kind, index]
        return sum(self.calls.values()), failed

    def release(self) -> None:
        """Drop the model and the batches; keep the timings and counts."""
        self.artifact = self.session = self.batches = None
        self.first = {}

    def metrics(self) -> Dict[str, float]:
        """Rows per CPU second at nominal host speed (see ``common.Timer``),
        and per wall second."""
        m = {}
        for prefix, times in (("", self.times), ("wall.", self.wall)):
            linear = median(times["likelihood"])
            log = median(times["log_likelihood"]) + median(times["conditional"])
            m[prefix + "bulk_linear_rows_per_s"] = ROWS / linear
            m[prefix + "bulk_log_rows_per_s"] = 2 * ROWS / log
        return m
