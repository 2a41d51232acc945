"""Tests for the native plan kernel (:mod:`repro.spn.native`).

The C loop must be **bit-identical** to the NumPy planned loop it replaces
on linear passes: on every suite profile at the tile edges (1, 3, 31, 32,
33 and 2048 rows) and in every integer evidence dtype (each read as
``int64``), with fewer evidence columns than variables, on zero and
underflowing roots and under sharded execution.  Also covered: the forced NumPy fallback, the
build cache (a broken cached object is rebuilt, never loaded), the bounds
the table builder checks before the C loop trusts them, and
``check=True`` comparing the native roots against the NumPy loop.
"""

import dataclasses
import os
import shutil
import stat
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from test_certified_log import SCATTERED, chain_spn, scattered_spn
from repro.spn import native
from repro.spn.compiled import EngineMismatchError, compile_tape
from repro.spn.generate import random_evidence
from repro.spn.graph import StructureError
from repro.spn.memplan import (
    ExecutionOptions,
    MemoryPlan,
    _plan_loop,
    execute_plan,
    plan_from_payload,
    plan_memory,
    plan_to_payload,
)
from repro.suite.registry import benchmark_n_vars, benchmark_names, benchmark_tape

HAS_COMPILER = bool(shutil.which("cc") or shutil.which("gcc"))
needs_compiler = pytest.mark.skipif(not HAS_COMPILER, reason="no C compiler")

TILE_EDGE_ROWS = (1, 3, 31, 32, 33, 2048)
#: Evidence dtypes, each converted to int64 for the C loop; -1
#: (marginalized) wraps to the dtype's maximum in the unsigned ones, an
#: out-of-domain value, and bool keeps it as True.  uint64 is fed only
#: values below 2**63, the range evidence validation admits.
DTYPES = (
    np.int8, np.int16, np.int32, np.int64,
    np.uint8, np.uint16, np.uint32, np.uint64, bool,
)
FORCED_SHARDS = ExecutionOptions(mode="sharded", threads=2, min_shard_rows=1)


def numpy_roots(plan: MemoryPlan, data: np.ndarray) -> np.ndarray:
    """The NumPy planned loop's linear roots (the native kernel's reference)."""
    n_rows = data.shape[0]
    block = np.empty((plan.n_physical, n_rows), dtype=np.float64)
    return _plan_loop(plan, data, False, np.empty(n_rows), block)


def native_roots(plan: MemoryPlan, data: np.ndarray) -> np.ndarray:
    kernel = native.plan_kernel(plan)
    if kernel is None:
        pytest.skip("native kernel unavailable")
    out = np.full(data.shape[0], np.nan)
    assert kernel.run(data, out)
    return out


def suite_evidence(name: str, n_rows: int, seed: int = 5) -> np.ndarray:
    return random_evidence(
        benchmark_n_vars(name), observed_fraction=0.6, seed=seed, n_samples=n_rows
    )


def fresh_resolver(monkeypatch, directory) -> None:
    """Resolve the library again, from scratch, with ``directory`` as cache."""
    monkeypatch.setattr(native, "cache_dir", lambda: directory)
    monkeypatch.setattr(native, "_RESOLVER", native._Resolver())


# --------------------------------------------------------------------------- #
# Bit-identity
# --------------------------------------------------------------------------- #
@needs_compiler
def test_native_kernel_is_active_with_a_compiler():
    assert native.library() is not None
    assert native.plan_kernel(benchmark_tape("Banknote").memory_plan()) is not None


@pytest.mark.parametrize("n_rows", TILE_EDGE_ROWS)
@pytest.mark.parametrize("name", benchmark_names())
def test_bit_identical_across_profiles_rows_and_dtypes(name, n_rows):
    plan = benchmark_tape(name).memory_plan()
    evidence = suite_evidence(name, n_rows)
    for dtype in DTYPES:
        if dtype is np.uint64:
            data = np.where(evidence < 0, 2**62, evidence).astype(dtype)
        else:
            data = evidence.astype(dtype)
        assert np.array_equal(native_roots(plan, data), numpy_roots(plan, data)), dtype


def test_strided_evidence_is_converted():
    plan = benchmark_tape("KDDCup2k").memory_plan()
    wide = suite_evidence("KDDCup2k", 90)
    for data in (wide[::-3], wide.T.copy().T, np.asfortranarray(wide[:40])):
        assert np.array_equal(native_roots(plan, data), numpy_roots(plan, data))


@pytest.mark.parametrize("name", ["Banknote", "BBC"])
def test_fewer_columns_than_variables(name):
    plan = benchmark_tape(name).memory_plan()
    evidence = suite_evidence(name, 70)
    for n_cols in (0, 1, benchmark_n_vars(name) // 2):
        data = np.ascontiguousarray(evidence[:, :n_cols])
        assert np.array_equal(native_roots(plan, data), numpy_roots(plan, data))


def test_zero_and_underflowing_roots():
    chain = plan_memory(compile_tape(chain_spn(700)))
    rows = np.array([[1], [0], [-1], [2]] * 9)
    got = native_roots(chain, rows)
    assert np.array_equal(got, numpy_roots(chain, rows))
    assert not got.any()  # underflowed or zero: the exact log program's rows
    scattered = plan_memory(compile_tape(scattered_spn()))
    got = native_roots(scattered, SCATTERED)
    assert np.array_equal(got, numpy_roots(scattered, SCATTERED))
    assert (got == 0.0).any() and ((got > 0) & (got < 2.3e-308)).any()  # subnormal


def test_sharded_execution_on_two_threads():
    tape = benchmark_tape("Audio")
    plan = tape.memory_plan()
    data = suite_evidence("Audio", 2048, seed=9)
    want = numpy_roots(plan, data)
    assert np.array_equal(tape.execute_batch(data, execution=FORCED_SHARDS), want)
    assert np.array_equal(tape.execute_batch(data), want)


@needs_compiler
def test_only_shards_release_the_gil(monkeypatch):
    tape = benchmark_tape("Audio")
    data = suite_evidence("Audio", 64)
    calls = []
    run = native.PlanKernel.run

    def record(self, evidence, out, release_gil=False):
        calls.append((evidence.shape[0], release_gil))
        return run(self, evidence, out, release_gil)

    monkeypatch.setattr(native.PlanKernel, "run", record)
    tape.execute_batch(data)
    assert calls == [(64, False)]
    calls.clear()
    tape.execute_batch(data, execution=FORCED_SHARDS)
    assert sorted(calls) == [(32, True), (32, True)]


def test_forced_fallback_is_bit_identical(monkeypatch, tmp_path):
    tape = benchmark_tape("BBC")
    data = suite_evidence("BBC", 100)
    want = execute_plan(tape.memory_plan(), data)
    fresh_resolver(monkeypatch, tmp_path)
    monkeypatch.setattr(native, "_load_or_build", lambda: None)
    plan = plan_memory(tape)
    assert np.array_equal(execute_plan(plan, data), want)
    assert plan._native is None
    exact = tape.execute_slots(data, log_domain=True)[tape.root_slot]
    assert np.array_equal(execute_plan(plan, data, log_domain=True), exact)


# --------------------------------------------------------------------------- #
# Build cache
# --------------------------------------------------------------------------- #
@needs_compiler
@pytest.mark.parametrize("damage", ["truncated", "garbage"])
def test_broken_cached_object_is_rebuilt(monkeypatch, tmp_path, damage):
    built = native.library()
    assert built is not None
    directory = tmp_path / "cache"
    compiler = shutil.which("cc") or shutil.which("gcc")
    directory.mkdir(mode=0o700)
    path = native._library_path(directory, compiler, native.COMPILE_FLAGS)
    good = Path(built._name).read_bytes()
    broken = good[: len(good) // 3] if damage == "truncated" else b"\x7fELF" + b"x" * 64
    path.write_bytes(broken)
    fresh_resolver(monkeypatch, directory)
    plan = plan_memory(benchmark_tape("Banknote"))
    data = suite_evidence("Banknote", 40)
    assert np.array_equal(native_roots(plan, data), numpy_roots(plan, data))
    assert path.stat().st_size == len(good)


@needs_compiler
def test_cache_directory_is_private(monkeypatch, tmp_path):
    directory = tmp_path / "a" / "cache"
    fresh_resolver(monkeypatch, directory)
    assert native.library() is not None
    assert stat.S_IMODE(os.stat(directory).st_mode) == 0o700
    assert [p.suffix for p in directory.iterdir()] == [".so"]  # no temporaries


@needs_compiler
def test_concurrent_first_use_builds_once(monkeypatch, tmp_path):
    """Threads racing the first pass: one build, per-thread tiles, same roots."""
    fresh_resolver(monkeypatch, tmp_path)
    builds = []
    compile_ = native._compile

    def counting(*args):
        builds.append(args)
        return compile_(*args)

    monkeypatch.setattr(native, "_compile", counting)
    tape = benchmark_tape("KDDCup2k")
    plans = [plan_memory(tape), plan_memory(tape)]
    data = suite_evidence("KDDCup2k", 100)
    want = numpy_roots(plans[0], data)
    outcomes = []

    def work(index: int) -> None:
        for _ in range(20):
            outcomes.append(np.array_equal(execute_plan(plans[index % 2], data), want))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=work, args=(i,)) for i in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert len(outcomes) == 160 and all(outcomes)
    assert len(builds) == 1
    assert all(plan._native is not None for plan in plans)


@needs_compiler
def test_portable_build_when_native_flags_fail(monkeypatch, tmp_path):
    fresh_resolver(monkeypatch, tmp_path)
    compile_ = native._compile

    def no_march_native(compiler, flags, path):
        if "-march=native" in flags:
            return "unrecognized command-line option '-march=native'"
        return compile_(compiler, flags, path)

    monkeypatch.setattr(native, "_compile", no_march_native)
    assert native.library() is not None
    plan = plan_memory(benchmark_tape("EEG-eye"))
    data = suite_evidence("EEG-eye", 50)
    assert np.array_equal(native_roots(plan, data), numpy_roots(plan, data))


def test_compile_failure_falls_back(monkeypatch, tmp_path, caplog):
    fresh_resolver(monkeypatch, tmp_path)
    monkeypatch.setattr(native, "_compile", lambda *args: "compiler exploded")
    with caplog.at_level("WARNING", logger=native.__name__):
        assert native.library() is None
        assert native.library() is None
    assert sum("compiler exploded" in r.getMessage() for r in caplog.records) == 1
    plan = plan_memory(benchmark_tape("Banknote"))
    data = suite_evidence("Banknote", 8)
    assert np.array_equal(execute_plan(plan, data), numpy_roots(plan, data))


# --------------------------------------------------------------------------- #
# Bounds the C loop relies on
# --------------------------------------------------------------------------- #
def _rebuilt(plan: MemoryPlan, index: int = 0, **changes) -> MemoryPlan:
    """A copy of ``plan`` with ``changes`` applied to kernel ``index``."""
    kernels = list(plan.kernels)
    kernels[index] = dataclasses.replace(kernels[index], **changes)
    fields = {f.name: getattr(plan, f.name) for f in dataclasses.fields(plan)}
    return MemoryPlan(**{**fields, "kernels": kernels})


def test_out_of_range_plan_is_rejected_before_the_c_loop():
    plan = benchmark_tape("Banknote").memory_plan()
    data = suite_evidence("Banknote", 4)
    index = next(i for i, k in enumerate(plan.kernels) if k.const_arg0 is None)
    arg0 = plan.kernels[index].arg0.copy()
    arg0[0] = plan.n_physical
    bad = _rebuilt(plan, index, arg0=arg0, arg0_slice=None)
    with pytest.raises(IndexError):
        numpy_roots(bad, data)
    with pytest.raises(ValueError, match="outside the physical buffer"):
        native.plan_tables(bad)
    if native.library() is not None:
        with pytest.raises(ValueError):
            execute_plan(bad, data)


def test_table_builder_checks_every_bound():
    plan = benchmark_tape("Banknote").memory_plan()
    first = plan.kernels[0]
    index = next(i for i, k in enumerate(plan.kernels) if k.encode is not None)
    encoding = plan.kernels[index].encode
    cases = {
        "root_phys": dataclasses.replace(plan, root_phys=plan.n_physical),
        "destination": _rebuilt(
            plan, 0, dest_start=plan.n_physical + 1 - first.width,
            dest_stop=plan.n_physical + 1,
        ),
        "negative variable": _rebuilt(
            plan, index,
            encode=dataclasses.replace(
                encoding, ind_vars=np.concatenate([[-1], encoding.ind_vars[1:]])
            ),
        ),
        "own destination": _rebuilt(
            plan, 0, arg1=np.full(first.width, first.dest_start), arg1_slice=None
        ),
    }
    for what, bad in cases.items():
        with pytest.raises(ValueError):
            native.plan_tables(bad)
        assert bad._native is native.UNRESOLVED, what
    native.plan_tables(plan)


def test_payload_with_negative_indicator_variable_is_rejected():
    payload = plan_to_payload(benchmark_tape("Banknote").memory_plan())
    record = next(r for r in payload["kernels"] if r["encode"] and r["encode"]["ind_vars"])
    record["encode"]["ind_vars"][0] = -1
    with pytest.raises(StructureError, match="negative variable"):
        plan_from_payload(payload)


# --------------------------------------------------------------------------- #
# check=True checks the program that runs
# --------------------------------------------------------------------------- #
@needs_compiler
def test_check_catches_a_one_ulp_native_difference(monkeypatch):
    tape = benchmark_tape("Banknote")
    data = suite_evidence("Banknote", 12)
    checked = ExecutionOptions(check=True)
    assert np.array_equal(
        tape.execute_batch(data, execution=checked), numpy_roots(tape.memory_plan(), data)
    )
    run = native.PlanKernel.run

    def off_by_one_ulp(self, evidence, out, *args):
        ok = run(self, evidence, out, *args)
        out[0] = np.nextafter(out[0], np.inf)
        return ok

    monkeypatch.setattr(native.PlanKernel, "run", off_by_one_ulp)
    with pytest.raises(EngineMismatchError, match="native plan kernel"):
        tape.execute_batch(data, execution=checked)
