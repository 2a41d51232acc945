"""Native plan kernel: a :class:`~repro.spn.memplan.MemoryPlan`'s linear program in C.

The NumPy executor (:func:`repro.spn.memplan.execute_plan`) dispatches two
or three array calls per planned kernel over a row block that spills the
L2 cache on the large suite tapes.  This module runs the same program as
**one C loop**: ``plan_kernel.c`` is a generic interpreter of the plan's
kernel list (not per-tape generated code) that walks every kernel over
:data:`TILE_ROWS`-row tiles of the physical buffer, so a tile of the whole
buffer (``n_physical x 32`` doubles, ~356 KB on BBC) stays cache-resident
from the first kernel to the root.  It encodes indicators and constants
straight from the (``int64``) evidence, and every lane runs
the same IEEE add or mul, with the same operands in the same order, as the
NumPy loop — the results are **bit-identical**.

Build and cache
    The C source is compiled once per machine with :data:`COMPILE_FLAGS`
    (``-O3 -march=native -ffp-contract=off``; a build without
    ``-march=native`` is the second try).  ``-ffp-contract=off`` forbids
    fused multiply-adds; ``-ffast-math``/``-Ofast`` are never used, because
    their flush-to-zero and reassociation would break bit-identity and the
    subnormal arithmetic behind the certified log floor.  The shared object
    lands in a per-user ``0700`` directory (:func:`cache_dir`) under a name
    keyed by the C source, the flags, the compiler and the CPU's feature
    flags, written atomically (a temporary file plus ``os.replace``) and
    sealed with its own SHA-256, so a damaged cached file is rebuilt instead
    of mapped.  It is loaded through :mod:`ctypes`.  A pass keeps the GIL,
    like NumPy's small array loops: handing it to another busy thread for
    the call can cost the caller up to the interpreter's switch interval to
    get it back.  Only the shards of
    :func:`~repro.spn.memplan.execute_sharded`, which exist to overlap,
    release it.

When it runs
    :func:`plan_kernel` resolves the library at the first pass or
    :meth:`MemoryPlan.reserve` of the process.  Without a C compiler, on a
    compile or load failure (logged once), for log-domain programs and for
    profiled passes, the executor keeps its NumPy loop, which also stays the
    reference that ``check=True`` compares the native roots against.
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import platform
import shutil
import stat
import subprocess
import tempfile
import threading
from pathlib import Path
from typing import Dict, Optional, Tuple

import numpy as np

__all__ = [
    "TILE_ROWS",
    "COMPILE_FLAGS",
    "PlanKernel",
    "cache_dir",
    "library",
    "plan_kernel",
    "plan_tables",
]

_log = logging.getLogger(__name__)

_SOURCE = Path(__file__).with_name("plan_kernel.c")

#: Rows per tile of the C loop (``TILE`` in ``plan_kernel.c``).
TILE_ROWS = 32

#: Must equal ``ABI_VERSION`` in ``plan_kernel.c``.
_ABI_VERSION = 2

#: Optimisation flags of the native build; the portable set is the fallback
#: for compilers that reject ``-march=native``.
COMPILE_FLAGS = ("-O3", "-march=native", "-ffp-contract=off")
_PORTABLE_FLAGS = ("-O3", "-ffp-contract=off")
_LINK_FLAGS = ("-std=c99", "-shared", "-fPIC")
_COMPILE_TIMEOUT_S = 120.0

#: Appended to every built object with the SHA-256 of the bytes before it.
#: ``dlopen`` ignores trailing bytes, and a cached file without an intact
#: seal is rebuilt, never loaded: mapping a truncated object faults the
#: process (SIGBUS) instead of raising.
_SEAL = b"\0repro-plan-kernel-seal\0"

#: Marks a plan whose native kernel has not been resolved yet.
UNRESOLVED = object()


class _PlanStruct(ctypes.Structure):
    """Mirror of ``plan_t`` in ``plan_kernel.c``."""

    _fields_ = [
        ("n_kernels", ctypes.c_int64),
        ("kernels", ctypes.c_void_p),
        ("rows0", ctypes.c_void_p),
        ("rows1", ctypes.c_void_p),
        ("const0", ctypes.c_void_p),
        ("const1", ctypes.c_void_p),
        ("ind_rows", ctypes.c_void_p),
        ("ind_vars", ctypes.c_void_p),
        ("ind_values", ctypes.c_void_p),
        ("const_rows", ctypes.c_void_p),
        ("const_probs", ctypes.c_void_p),
        ("n_physical", ctypes.c_int64),
        ("root_phys", ctypes.c_int64),
    ]


# --------------------------------------------------------------------------- #
# Per-plan tables
# --------------------------------------------------------------------------- #
def _exclusive_cumsum(sizes: np.ndarray) -> np.ndarray:
    offsets = np.zeros(sizes.size, dtype=np.int64)
    np.cumsum(sizes[:-1], out=offsets[1:])
    return offsets


def plan_tables(plan) -> Dict[str, np.ndarray]:
    """The C loop's tables for ``plan``, after checking every bound it trusts.

    Derived from the concatenations ``MemoryPlan.__post_init__`` builds
    (``_kernel_meta``, ``_operand_meta``, ``_const_meta``, ``_encode_meta``),
    so the loop runs exactly the program the static verifier reads.  Raises
    ``ValueError`` when a row reference falls outside the physical buffer,
    an indicator names a negative variable, an operand or constant column
    does not match its kernel's width, or a kernel reads its own
    destination rows — the C loop would read out of bounds (or alias) where
    the NumPy loop raises ``IndexError``.
    """
    meta = plan._kernel_meta
    n_physical = int(plan.n_physical)
    start = meta["start"].astype(np.int64)
    stop = meta["stop"].astype(np.int64)
    widths = stop - start
    c0, c1 = meta["c0"], meta["c1"]
    ind_g, ind_rows, ind_vars, ind_values, const_g, const_rows, const_probs = (
        plan._encode_meta[:7]
    )
    (len0, rows0, _), (len1, rows1, _) = plan._operand_meta
    (clen0, const0), (clen1, const1) = plan._const_meta

    def fail(what: str) -> None:
        raise ValueError(f"memory plan rejected by the native kernel: {what}")

    if not 0 <= int(plan.root_phys) < n_physical:
        fail(f"root_phys {plan.root_phys} outside {n_physical} physical rows")
    if bool(((start < 0) | (stop < start) | (stop > n_physical)).any()):
        fail("a destination interval lies outside the physical buffer")
    for what, rows in (
        ("operand 0", rows0),
        ("operand 1", rows1),
        ("indicator encode", ind_rows),
        ("constant encode", const_rows),
    ):
        if rows.size and (int(rows.min()) < 0 or int(rows.max()) >= n_physical):
            fail(f"an {what} row lies outside the physical buffer")
    if ind_vars.size and int(ind_vars.min()) < 0:
        fail("an indicator reads a negative variable index")
    if not ind_rows.size == ind_vars.size == ind_values.size:
        fail("indicator rows, variables and values differ in length")
    if const_rows.size != const_probs.size:
        fail("constant rows and probabilities differ in length")
    for side, (is_const, lengths, const_lengths) in enumerate(
        ((c0, len0, clen0), (c1, len1, clen1))
    ):
        if not (
            np.array_equal(lengths, widths[~is_const])
            and np.array_equal(const_lengths, widths[is_const])
        ):
            fail(f"an operand {side} column does not match its kernel's width")
    for is_const, lengths, rows in ((c0, len0, rows0), (c1, len1, rows1)):
        owner = np.repeat(np.flatnonzero(~is_const), lengths)
        if bool(((rows >= start[owner]) & (rows < stop[owner])).any()):
            fail("a kernel reads its own destination rows")

    kernel_ids = np.arange(meta.size, dtype=np.int64)
    table = np.zeros((meta.size, 11), dtype=np.int64)
    table[:, 0] = ~meta["add"]  # the NumPy loop multiplies every non-add kernel
    table[:, 1] = start
    table[:, 2] = widths
    for column, (is_const, lengths, const_lengths) in (
        (3, (c0, len0, clen0)),
        (5, (c1, len1, clen1)),
    ):
        table[:, column] = is_const
        table[~is_const, column + 1] = _exclusive_cumsum(lengths)
        table[is_const, column + 1] = _exclusive_cumsum(const_lengths)
    table[:, 7] = np.searchsorted(ind_g, kernel_ids, side="left")
    table[:, 8] = np.searchsorted(ind_g, kernel_ids, side="right")
    table[:, 9] = np.searchsorted(const_g, kernel_ids, side="left")
    table[:, 10] = np.searchsorted(const_g, kernel_ids, side="right")

    def ints(values) -> np.ndarray:
        return np.ascontiguousarray(values, dtype=np.int64)

    def floats(values) -> np.ndarray:
        return np.ascontiguousarray(values, dtype=np.float64)

    return {
        "kernels": table,
        "rows0": ints(rows0),
        "rows1": ints(rows1),
        "const0": floats(const0),
        "const1": floats(const1),
        "ind_rows": ints(ind_rows),
        "ind_vars": ints(ind_vars),
        "ind_values": ints(ind_values),
        "const_rows": ints(const_rows),
        "const_probs": floats(const_probs),
    }


class PlanKernel:
    """One plan's tables bound to the loaded library.

    :meth:`run` executes the linear program on the calling thread's tile
    buffer (kept on the plan's ``_scratch``, like the NumPy workspace).
    """

    def __init__(self, plan, lib: ctypes.CDLL) -> None:
        self._tables = plan_tables(plan)  # owns the memory the struct points at
        addresses = {name: array.ctypes.data for name, array in self._tables.items()}
        self._struct = _PlanStruct(
            n_kernels=plan.n_kernels,
            n_physical=plan.n_physical,
            root_phys=plan.root_phys,
            **addresses,
        )
        self._address = ctypes.addressof(self._struct)
        self._run = lib.repro_run_plan
        self._run_holding_gil = lib.run_plan_holding_gil
        self._tile_size = int(plan.n_physical) * TILE_ROWS
        self._scratch = plan._scratch

    def tile(self) -> int:
        """Address of the calling thread's tile buffer (allocated once)."""
        tile = getattr(self._scratch, "tile", None)
        if tile is None:
            buffer = np.empty(self._tile_size, dtype=np.float64)
            tile = (buffer, buffer.ctypes.data)
            self._scratch.tile = tile
        return tile[1]

    def run(self, data: np.ndarray, out: np.ndarray, release_gil: bool = False) -> bool:
        """Write the roots of ``data``'s rows into ``out``; ``False`` if unsupported.

        ``data`` is a validated 2-D evidence block, read as C-contiguous
        ``int64`` (converted once when it is not; validated evidence holds
        no value outside that range).  An ``out`` that is not a contiguous
        float64 vector of one value per row returns ``False`` untouched, and
        the caller runs the NumPy loop.  The call keeps the GIL unless
        ``release_gil``.
        """
        n_rows, n_cols = data.shape
        if (
            out.shape != (n_rows,)
            or out.dtype != np.float64
            or not out.flags.c_contiguous
        ):
            return False
        if n_rows:
            data = np.ascontiguousarray(data, dtype=np.int64)
            run = self._run if release_gil else self._run_holding_gil
            run(self._address, data.ctypes.data, n_rows, n_cols, self.tile(),
                out.ctypes.data)
        return True


def plan_kernel(plan) -> Optional[PlanKernel]:
    """The native kernel of ``plan``, or ``None`` when the library is unavailable.

    Resolved once per plan (the library once per process).  While another
    thread is still building the library this returns ``None`` without
    caching it, so that pass runs the (bit-identical) NumPy loop.
    """
    kernel = plan._native
    if kernel is not UNRESOLVED:
        return kernel
    lib, final = _RESOLVER.get()
    kernel = None if lib is None else PlanKernel(plan, lib)
    if final:
        plan._native = kernel
    return kernel


# --------------------------------------------------------------------------- #
# Building and loading the shared object
# --------------------------------------------------------------------------- #
def cache_dir() -> Path:
    """The per-user directory holding compiled kernels (``0700``)."""
    base = os.environ.get("XDG_CACHE_HOME") or os.path.join(
        os.path.expanduser("~"), ".cache"
    )
    return Path(base) / "repro" / "native"


def _private_dir(path: Path) -> Path:
    """Create ``path`` (mode ``0700``) and refuse it unless only we can write it."""
    path.mkdir(mode=0o700, parents=True, exist_ok=True)
    info = os.lstat(path)
    if not stat.S_ISDIR(info.st_mode):
        raise OSError(f"{path} is not a directory")
    if hasattr(os, "getuid"):
        if info.st_uid != os.getuid():
            raise OSError(f"{path} is owned by another user")
        if info.st_mode & 0o077:
            os.chmod(path, 0o700)
    return path


def _cpu_signature() -> str:
    """The CPU's feature flags (what ``-march=native`` compiles against)."""
    try:
        with open("/proc/cpuinfo", encoding="utf-8", errors="replace") as handle:
            for line in handle:
                if line.startswith(("flags", "Features")):
                    return line
    except OSError:
        pass
    return platform.processor()


def _library_path(directory: Path, compiler: str, flags: Tuple[str, ...]) -> Path:
    """Cache file name keyed by source, flags, compiler and CPU features."""
    digest = hashlib.sha256()
    digest.update(_SOURCE.read_bytes())
    real = os.path.realpath(compiler)
    info = os.stat(real)
    for part in (
        *flags, *_LINK_FLAGS, real, str(info.st_size), str(info.st_mtime_ns),
        platform.machine(), _cpu_signature(),
    ):
        digest.update(part.encode())
        digest.update(b"\0")
    return directory / f"plan_kernel-{digest.hexdigest()[:20]}.so"


def _compile(compiler: str, flags: Tuple[str, ...], path: Path) -> Optional[str]:
    """Build the shared object at ``path`` atomically; an error string on failure."""
    fd, temporary = tempfile.mkstemp(
        prefix=path.stem + ".", suffix=".tmp", dir=path.parent
    )
    os.close(fd)
    try:
        proc = subprocess.run(
            [compiler, *flags, *_LINK_FLAGS, "-o", temporary, str(_SOURCE)],
            capture_output=True, text=True, timeout=_COMPILE_TIMEOUT_S,
        )
        if proc.returncode != 0:
            return proc.stderr.strip() or f"{compiler} exited with {proc.returncode}"
        with open(temporary, "r+b") as handle:
            body = handle.read()
            handle.write(_SEAL + hashlib.sha256(body).digest())
        os.replace(temporary, path)
        return None
    except (OSError, subprocess.SubprocessError) as exc:
        return str(exc)
    finally:
        if os.path.exists(temporary):
            os.unlink(temporary)


def _sealed(path: Path) -> bool:
    """Whether ``path`` holds a complete object written by :func:`_compile`."""
    try:
        content = path.read_bytes()
    except OSError:
        return False
    size = len(_SEAL) + hashlib.sha256().digest_size
    body, seal = content[:-size], content[-size:]
    return (
        len(content) > size
        and seal[: len(_SEAL)] == _SEAL
        and hashlib.sha256(body).digest() == seal[len(_SEAL) :]
    )


def _load(path: Path) -> Optional[ctypes.CDLL]:
    """Load and check a cached shared object; ``None`` if missing or broken."""
    if not _sealed(path):
        return None
    try:
        lib = ctypes.CDLL(str(path))
        abi, tile_rows, run = (
            lib.repro_plan_kernel_abi, lib.repro_plan_tile_rows, lib.repro_run_plan
        )
    except (OSError, AttributeError):
        return None
    for probe in (abi, tile_rows):
        probe.argtypes = []
        probe.restype = ctypes.c_int
    if abi() != _ABI_VERSION or tile_rows() != TILE_ROWS:
        return None
    run.argtypes = [
        ctypes.c_void_p, ctypes.c_void_p, ctypes.c_int64, ctypes.c_int64,
        ctypes.c_void_p, ctypes.c_void_p,
    ]
    run.restype = None
    # The same entry point through a prototype that keeps the GIL.
    lib.run_plan_holding_gil = ctypes.PYFUNCTYPE(None, *run.argtypes)(
        ctypes.cast(run, ctypes.c_void_p).value
    )
    return lib


def _load_or_build() -> Optional[ctypes.CDLL]:
    """Load the cached library, compiling it first when missing or broken."""
    compiler = shutil.which("cc") or shutil.which("gcc")
    if compiler is None:
        _log.info("no C compiler found: tape passes run the NumPy executor")
        return None
    errors = []
    try:
        directory = _private_dir(cache_dir())
        for flags in (COMPILE_FLAGS, _PORTABLE_FLAGS):
            path = _library_path(directory, compiler, flags)
            lib = _load(path)
            if lib is None:
                error = _compile(compiler, flags, path)
                if error is not None:
                    errors.append(f"{' '.join(flags)}: {error}")
                    continue
                lib = _load(path)
            if lib is not None:
                return lib
            errors.append(f"{' '.join(flags)}: {path} does not load")
    except OSError as exc:
        errors.append(str(exc))
    _log.warning(
        "native plan kernel unavailable, tape passes run the NumPy executor: %s",
        "; ".join(errors),
    )
    return None


class _Resolver:
    """Resolves the library once per process without compiling under a lock.

    The first caller claims the build and runs it with no lock held; callers
    arriving meanwhile get ``(None, False)`` and run the NumPy loop for that
    pass.  The result (the library or ``None``) is then final.
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._claimed = False
        self._done = False
        self._lib: Optional[ctypes.CDLL] = None

    def get(self) -> Tuple[Optional[ctypes.CDLL], bool]:
        if self._done:
            return self._lib, True
        with self._lock:
            if self._done:
                return self._lib, True
            if self._claimed:
                return None, False
            self._claimed = True
        lib = None
        try:
            lib = _load_or_build()
        finally:
            with self._lock:
                self._lib = lib
                self._done = True
        return lib, True


_RESOLVER = _Resolver()


def library() -> Optional[ctypes.CDLL]:
    """The loaded native library, or ``None`` (resolving it on first use)."""
    return _RESOLVER.get()[0]
