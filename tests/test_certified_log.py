"""Tests for certified log-domain passes (linear pass + per-row ``log``).

A log-domain :meth:`CompiledTape.execute_batch` runs the linear program,
takes ``np.log`` of every root at or above the tape's certified floor
(:attr:`repro.statics.absint.TapeAnalysis.log_floor`), and reruns every
other row — below the floor, zero, ``inf`` or ``NaN`` — through the exact
``logaddexp`` program.  Covered here:

* the floor's soundness: the sensitivity bound ``G`` against brute-force
  error injection on a small tape, and the documented tolerance
  (:attr:`TapeAnalysis.log_tolerance`) against an exact 60-digit decimal
  walk and the python reference walk on all nine suite profiles;
* the fallback rows: underflowed chains get the exact log value, exact
  zeros stay ``-inf`` (and a ``Conditional`` on them ``nan``), overflowing
  tapes route every row through the exact program;
* the contracts: scattered fallback rows are bit-identical alone and in a
  batch, across planned/sharded/legacy execution, with and without a
  profiler; ``check=True`` replays the program that ran; session pass
  counts ignore the fallback pass.
"""

import decimal
import math
from decimal import Decimal

import numpy as np
import pytest

from repro.api import Conditional, InferenceSession, LogLikelihood
from repro.observability import TapeProfiler
from repro.observability.profile import FALLBACK_PREFIX
from repro.spn import compiled as compiled_module
from repro.spn.compiled import EngineMismatchError, compile_tape
from repro.spn.evaluate import MARGINALIZED, evaluate_log_batch
from repro.spn.generate import random_evidence
from repro.spn.graph import SPN
from repro.spn.linearize import OP_MUL, InputSlot, Operation, OperationList
from repro.spn.memplan import ExecutionOptions, plan_memory
from repro.spn.nodes import IndicatorLeaf, ParameterLeaf, SumNode
from repro.statics.absint import analyze_tape, slot_sensitivity
from repro.suite.registry import (
    benchmark_n_vars,
    benchmark_names,
    benchmark_tape,
    build_benchmark,
)

FORCED_SHARDS = ExecutionOptions(mode="sharded", threads=2, min_shard_rows=1)
EXECUTIONS = ("planned", FORCED_SHARDS, "legacy")

_EXACT = decimal.Context(prec=60, Emin=-(10**9), Emax=10**9)


def exact_log(spn: SPN, row) -> float:
    """``log P(row)`` from a 60-digit decimal walk over the SPN's nodes.

    Decimal exponents never underflow, so this shares no numerics with the
    float engines: it is the "exact" side of the tolerance contract.
    """
    values = {}
    for nid in spn.topological_order():
        node = spn.node(nid)
        if isinstance(node, IndicatorLeaf):
            observed = row[node.var] if node.var < len(row) else MARGINALIZED
            hit = observed < 0 or observed == node.value
            values[nid] = Decimal(1 if hit else 0)
        elif isinstance(node, ParameterLeaf):
            values[nid] = Decimal(node.prob)
        elif isinstance(node, SumNode):
            weights = node.weights if node.is_weighted else [1.0] * len(node.children)
            acc = Decimal(0)
            for weight, child in zip(weights, node.children):
                acc = _EXACT.add(acc, _EXACT.multiply(Decimal(weight), values[child]))
            values[nid] = acc
        else:
            acc = Decimal(1)
            for child in node.children:
                acc = _EXACT.multiply(acc, values[child])
            values[nid] = acc
    root = values[spn.root]
    return float(_EXACT.ln(root)) if root > 0 else -math.inf


def certified_bound(analysis, values: np.ndarray) -> np.ndarray:
    """The documented tolerance: ``log_tolerance`` plus two ulps of the log."""
    return analysis.log_tolerance + 2.0 ** -51 * np.abs(values)


def exact_program(tape, data: np.ndarray) -> np.ndarray:
    """The exact log-domain program's root (the legacy slot matrix)."""
    return tape.execute_slots(data, log_domain=True)[tape.root_slot]


def chain_spn(n_factors: int, factor: float = 0.3) -> SPN:
    """``x0 * factor**n_factors`` — a product chain deep enough to underflow."""
    spn = SPN()
    leaves = [spn.add_indicator(0, 1)]
    leaves += [spn.add_parameter(factor) for _ in range(n_factors)]
    spn.set_root(spn.add_product(leaves))
    return spn


def scattered_spn() -> SPN:
    """A mixture whose rows land above the floor, below it, and at zero.

    ``x0 = 0`` (and marginalized ``x0``) reach ~0.5: certified.  ``x0 = 1``
    selects a 614-factor chain (subnormal, below the floor) for ``x1 = 0``
    and a 700-factor chain (underflows to 0.0) for ``x1 = 1``: both fall
    back to the exact program, which returns finite logs.  Out-of-domain
    values are zero-probability rows: ``-inf``.
    """
    spn = SPN()
    x0 = [spn.add_indicator(0, v) for v in (0, 1)]
    x1 = [spn.add_indicator(1, v) for v in (0, 1)]
    mid = spn.add_product([x1[0]] + [spn.add_parameter(0.3) for _ in range(614)])
    deep = spn.add_product([x1[1]] + [spn.add_parameter(0.3) for _ in range(700)])
    tail = spn.add_product([x0[1], spn.add_sum([mid, deep], weights=[0.5, 0.5])])
    spn.set_root(spn.add_sum([x0[0], tail], weights=[0.5, 0.5]))
    return spn


#: Evidence rows over ``scattered_spn``: certified rows interleaved with
#: below-floor, underflowed and zero-probability rows.
SCATTERED = np.array(
    [
        [0, 0], [1, 0], [MARGINALIZED, 1], [1, 1], [0, MARGINALIZED],
        [2, 0], [1, MARGINALIZED], [0, 1], [1, 2], [MARGINALIZED, MARGINALIZED],
        [1, 0], [0, 0],
    ],
    dtype=np.int64,
)
#: Rows of SCATTERED the floor cannot certify.
SCATTERED_FALLBACK = [1, 3, 5, 6, 8, 10]


@pytest.fixture(scope="module")
def scattered():
    spn = scattered_spn()
    return spn, compile_tape(spn)


# --------------------------------------------------------------------------- #
# The floor and its soundness
# --------------------------------------------------------------------------- #
class TestLogFloor:
    def test_suite_floors_sit_near_the_subnormal_range(self):
        for name in benchmark_names():
            tape = benchmark_tape(name)
            analysis = analyze_tape(tape)
            assert 0.0 < analysis.log_floor < 1e-300
            assert tape.log_floor() == analysis.log_floor
            assert analysis.rounding_depth >= analysis.depth
            assert analysis.log_tolerance < 1e-11

    def test_verify_cli_prints_the_floor(self, capsys):
        from repro.statics.__main__ import main

        assert main(["verify"]) == 0
        out = capsys.readouterr().out
        assert out.count("log_floor=") == len(benchmark_names())
        assert "log_tol=" in out

    def test_floor_formula(self):
        analysis = analyze_tape(benchmark_tape("Banknote"))
        assert analysis.log_floor == analysis.error_gain * 2.0 ** -1034  # G * 2**-1074 * 2**40

    def test_sensitivity_bounds_brute_force_error_injection(self, tiny_spn, mixture_spn):
        """Injecting ``eta`` at any operation slot moves the root by at
        most ``adj[slot] * eta``, and injecting it everywhere at once by at
        most ``G * eta`` — on every evidence row, marginals included."""
        for spn in (tiny_spn, mixture_spn, chain_spn(6, factor=0.9)):
            tape = compile_tape(spn)
            analysis = analyze_tape(tape)
            hi = _interval_upper(tape)
            adj = slot_sensitivity(tape, hi)
            assert analysis.error_gain == pytest.approx(adj[tape.n_inputs :].sum())
            eta = 1e-7
            grid = np.array([[a, b] for a in (-1, 0, 1) for b in (-1, 0, 1)])
            base = _root_with_injection(tape, grid, {})
            every = {s: eta for s in range(tape.n_inputs, tape.n_slots)}
            shift = _root_with_injection(tape, grid, every) - base
            assert np.all(shift <= analysis.error_gain * eta * (1 + 1e-6) + 1e-15)
            for slot in range(tape.n_inputs, tape.n_slots):
                shift = _root_with_injection(tape, grid, {slot: eta}) - base
                assert np.all(np.abs(shift) <= adj[slot] * eta * (1 + 1e-6) + 1e-15)

    @pytest.mark.parametrize("name", benchmark_names())
    def test_suite_profiles_within_documented_tolerance(self, name):
        """Every certified row is within ``log_tolerance`` (+2 ulps) of the
        exact log probability and of the python reference walk."""
        spn = build_benchmark(name)
        tape = benchmark_tape(name)
        analysis = analyze_tape(tape)
        data = random_evidence(
            benchmark_n_vars(name), observed_fraction=0.8, seed=71, n_samples=6
        )
        data = np.vstack([np.full((1, data.shape[1]), MARGINALIZED), data])
        got = tape.execute_batch(data, log_domain=True)
        linear = tape.execute_batch(data)
        assert np.all(linear >= analysis.log_floor)  # every row certified
        exact = np.array([exact_log(spn, row) for row in data])
        assert np.all(np.abs(got - exact) <= certified_bound(analysis, exact))
        reference = evaluate_log_batch(spn, data, engine="python")
        assert np.all(np.abs(got - reference) <= certified_bound(analysis, reference))


def _interval_upper(tape) -> np.ndarray:
    hi = np.zeros(tape.n_slots)
    for spec in tape.inputs:
        hi[spec.index] = 1.0 if spec.kind == "indicator" else spec.prob
    for kernel in tape.kernels:
        dest = slice(kernel.dest_start, kernel.dest_stop)
        if kernel.is_add:
            hi[dest] = hi[kernel.arg0] + hi[kernel.arg1]
        else:
            hi[dest] = hi[kernel.arg0] * hi[kernel.arg1]
    return hi


def _root_with_injection(tape, data: np.ndarray, inject) -> np.ndarray:
    """The linear slot-by-slot walk, adding ``inject[slot]`` after each op."""
    slots = tape.input_matrix(data).tolist()
    slots += [None] * tape.n_operations
    for kernel in tape.kernels:
        for lane in range(kernel.width):
            a = np.asarray(slots[kernel.arg0[lane]])
            b = np.asarray(slots[kernel.arg1[lane]])
            dest = kernel.dest_start + lane
            slots[dest] = (a + b if kernel.is_add else a * b) + inject.get(dest, 0.0)
    return np.asarray(slots[tape.root_slot])


# --------------------------------------------------------------------------- #
# Fallback rows
# --------------------------------------------------------------------------- #
class TestFallbackRows:
    def test_underflowed_chain_gets_the_exact_log(self):
        spn = chain_spn(700)
        tape = compile_tape(spn)
        row = np.array([[1]])
        assert tape.execute_batch(row)[0] == 0.0  # the linear pass underflows
        got = tape.execute_batch(row, log_domain=True)
        assert np.array_equal(got, exact_program(tape, row))
        assert got[0] == pytest.approx(700 * math.log(0.3), rel=1e-12)
        assert got[0] == pytest.approx(exact_log(spn, row[0]), rel=1e-12)

    def test_zero_probability_rows_are_minus_inf(self, scattered):
        spn, tape = scattered
        got = tape.execute_batch(SCATTERED, log_domain=True)
        zero = [5, 8]
        assert np.all(got[zero] == -np.inf)
        assert np.all(np.isfinite(np.delete(got, zero)))

    def test_conditional_on_zero_probability_evidence_is_nan(self, scattered):
        spn, _ = scattered
        session = InferenceSession(spn)
        evidence = np.array([[2, MARGINALIZED], [0, MARGINALIZED]])
        query = np.array([[MARGINALIZED, 0], [MARGINALIZED, 0]])
        got = session.run(Conditional(query=query, evidence=evidence))
        assert np.isnan(got[0])
        assert got[1] == pytest.approx(1.0)

    def test_fallback_rows_match_the_exact_program(self, scattered):
        spn, tape = scattered
        got = tape.execute_batch(SCATTERED, log_domain=True)
        exact_rows = exact_program(tape, SCATTERED[SCATTERED_FALLBACK])
        assert np.array_equal(got[SCATTERED_FALLBACK], exact_rows)
        for i, row in enumerate(SCATTERED):
            want = exact_log(spn, row)
            if math.isinf(want):
                assert got[i] == want
            else:
                assert got[i] == pytest.approx(want, rel=1e-12)

    def test_fallback_rows_are_exactly_the_uncertified_ones(self, scattered):
        _, tape = scattered
        linear = tape.execute_batch(SCATTERED)
        uncertified = np.flatnonzero(~(linear >= tape.log_floor()))
        assert uncertified.tolist() == SCATTERED_FALLBACK

    def test_overflowing_tape_takes_the_exact_path(self):
        """Weights > 1 whose interval bound overflows: the floor is inf,
        every row reruns through the exact program, answers unchanged."""
        ops = OperationList(
            inputs=[
                InputSlot(index=0, kind="indicator", var=0, value=1),
                InputSlot(index=1, kind="weight", prob=1e10),
            ],
            operations=[Operation(index=0, op=OP_MUL, arg0=0, arg1=1)]
            + [Operation(index=i, op=OP_MUL, arg0=1 + i, arg1=1) for i in range(1, 40)],
            root_slot=41,
        )
        tape = compile_tape(ops)
        analysis = analyze_tape(tape)
        assert analysis.overflow_possible
        assert analysis.log_floor == np.inf
        data = np.array([[1], [0], [MARGINALIZED]])
        for execution in EXECUTIONS:
            got = tape.execute_batch(data, log_domain=True, execution=execution)
            assert np.array_equal(got, exact_program(tape, data))
        assert got[1] == -np.inf
        assert got[0] == pytest.approx(40 * math.log(1e10), rel=1e-12)

    def test_bit_identical_alone_in_batch_and_across_executors(self, scattered):
        _, tape = scattered
        reference = tape.execute_batch(SCATTERED, log_domain=True)
        for execution in EXECUTIONS:
            batch = tape.execute_batch(SCATTERED, log_domain=True, execution=execution)
            assert np.array_equal(batch, reference)
            alone = np.concatenate(
                [
                    tape.execute_batch(SCATTERED[i : i + 1], log_domain=True, execution=execution)
                    for i in range(len(SCATTERED))
                ]
            )
            assert np.array_equal(alone, reference)

    def test_session_counts_no_fallback_pass(self, scattered):
        spn, _ = scattered
        session = InferenceSession(spn)
        calls = []
        session.on_evaluate = lambda domain, rows: calls.append((domain, rows))
        session.run(LogLikelihood(evidence=SCATTERED))
        assert calls == [("log", len(SCATTERED))]


# --------------------------------------------------------------------------- #
# check=True and the profiler
# --------------------------------------------------------------------------- #
class TestCheckAndProfiler:
    def test_check_replays_linear_prefix_and_log_fallback_rows(self, scattered, monkeypatch):
        _, tape = scattered
        replays = []
        real = compiled_module.verify_plan

        def spy(tape_, plan, data, log_domain=False):
            replays.append((log_domain, data.copy()))
            return real(tape_, plan, data, log_domain=log_domain)

        monkeypatch.setattr(compiled_module, "verify_plan", spy)
        checked = tape.execute_batch(
            SCATTERED, log_domain=True, execution=ExecutionOptions(check=True)
        )
        assert np.array_equal(checked, tape.execute_batch(SCATTERED, log_domain=True))
        assert [log for log, _ in replays] == [False, True]
        assert np.array_equal(replays[0][1], SCATTERED[: compiled_module.CHECK_ROWS])
        assert np.array_equal(replays[1][1], SCATTERED[SCATTERED_FALLBACK])

    @staticmethod
    def _corrupted(tape, column):
        """A plan with its broadcast-constant ``column`` halved; statics off
        so the value replay alone must catch it."""
        plan = plan_memory(tape)
        kernels = [k for k in plan.kernels if getattr(k, column) is not None]
        assert kernels
        for kernel in kernels:
            object.__setattr__(kernel, column, getattr(kernel, column) * 0.5)
        plan._statics_verified = True
        return plan

    def test_check_catches_a_mutated_linear_program(self, scattered):
        spn, _ = scattered
        tape = compile_tape(spn)
        tape.adopt_plan(self._corrupted(tape, "const_arg0"))
        with pytest.raises(EngineMismatchError):
            tape.execute_batch(
                SCATTERED[:1], log_domain=True, execution=ExecutionOptions(check=True)
            )

    def test_check_catches_a_mutated_fallback_program(self, scattered):
        spn, _ = scattered
        tape = compile_tape(spn)
        tape.adopt_plan(self._corrupted(tape, "const_arg0_log"))
        checked = ExecutionOptions(check=True)
        # Certified rows never run the log program, so nothing to catch...
        tape.execute_batch(SCATTERED[[0, 2, 4]], log_domain=True, execution=checked)
        # ...and a fallback row replays it.
        with pytest.raises(EngineMismatchError):
            tape.execute_batch(SCATTERED, log_domain=True, execution=checked)

    @pytest.mark.parametrize("execution", EXECUTIONS)
    def test_profiled_log_pass_is_bit_identical_and_attributes_fallback(
        self, scattered, execution
    ):
        _, tape = scattered
        reference = tape.execute_batch(SCATTERED, log_domain=True, execution=execution)
        with TapeProfiler() as profiler:
            profiled = tape.execute_batch(SCATTERED, log_domain=True, execution=execution)
        assert np.array_equal(profiled, reference)
        assert profiler.n_passes >= 1
        assert profiler.fallback_passes >= 1
        rows = profiler.table()
        fallback = [r for r in rows if r["kernel"].startswith(FALLBACK_PREFIX)]
        assert fallback
        assert all(r["rows"] % len(SCATTERED_FALLBACK) == 0 for r in fallback)
        assert "fallback passes" in profiler.render()

    def test_profiled_certified_pass_has_no_fallback(self):
        tape = benchmark_tape("Banknote")
        data = random_evidence(benchmark_n_vars("Banknote"), seed=4, n_samples=64)
        reference = tape.execute_batch(data, log_domain=True)
        with TapeProfiler() as profiler:
            profiled = tape.execute_batch(data, log_domain=True)
        assert np.array_equal(profiled, reference)
        assert profiler.n_passes == 1 and profiler.fallback_passes == 0
        assert not any(
            r["kernel"].startswith(FALLBACK_PREFIX) for r in profiler.table()
        )
