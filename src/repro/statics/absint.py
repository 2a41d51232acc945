"""Abstract interpretation of compiled tapes: interval and sign domains.

Runs the tape once over *abstract* values instead of evidence — one interval
per slot — and derives facts that hold for **every** evidence batch:

* **Linear interval domain** — each slot carries ``[lo, hi]`` bounds.
  Indicators are ``[0, 1]`` (hit/miss/marginalized), constants are points,
  sums add and products multiply endpoint-wise (sound because
  :func:`~repro.statics.verifier.verify_tape` guarantees non-negative
  inputs, so both operations are monotone).  When the root's upper bound is
  ``<= 1`` the tape is proved **normalized-by-construction**: its log-domain
  output can never exceed ``0`` on any evidence, the invariant the analysis
  query layer's normalizers rely on.
* **Sign / zero tracking** — whether a slot can be *exactly* zero (an
  indicator miss propagating through products).  A zero-capable root means
  ``-inf`` is reachable in the log domain; that is well-defined (``log 0``)
  and ``logaddexp`` absorbs it exactly, so it is reported as a fact, not an
  error.  ``NaN`` in the log domain would require ``inf - inf``, which needs
  a linear overflow first — tracked via the interval upper bounds.
* **Positive-magnitude log bounds** — for each slot, a lower bound on
  ``log(v)`` over every *strictly positive* value ``v`` the slot can take.
  Products add these bounds, so deep product chains drive the bound down
  linearly with depth; when the root's bound falls below the smallest
  positive normal double (``log ≈ -708``), a linear-domain pass may
  underflow a genuinely non-zero probability to ``0.0`` — the bug class a
  conditional query hit in this repository's history (joint/evidence
  division by an underflowed denominator), now flagged at compile time and
  answered by routing through the log domain.
* **Certified linear log floor** — a backward pass over the interval upper
  bounds bounds each slot's *sensitivity* ``adj[s]`` (how far the root
  moves per unit of error injected at ``s``): ``adj[root] = 1``, a sum
  passes ``adj[dest]`` to each operand, a product passes
  ``adj[dest] * hi[other operand]``.  Below the normal range every
  float64 rounding adds at most ``2**-1075`` absolute error, so
  ``G = sum(adj)`` over the operation slots bounds the total effect on
  the root of every subnormal rounding.  A linear root ``r`` with
  ``log_floor = G * 2**-1074 * 2**40 <= r < inf`` therefore carries at
  most a ``2**-41`` relative error from underflow, and ``log(r)`` is
  within :attr:`TapeAnalysis.log_tolerance` of the exact log
  probability.  This is what lets
  :meth:`~repro.spn.compiled.CompiledTape.execute_batch` answer log-domain
  passes with one linear pass plus a per-row ``log``, rerunning only the
  rows below the floor through the exact ``logaddexp`` program.

The pass is vectorized per tape kernel (a few hundred NumPy calls per tape)
and costs far less than compilation; it runs on every ``python -m
repro.statics verify`` and its facts are recorded in the benchmark sweeps.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["TapeAnalysis", "analyze_tape", "slot_sensitivity", "LOG_TINY"]

#: ``log`` of the smallest positive *normal* float64 — positive values whose
#: static log lower bound falls below this may underflow to ``0.0`` in a
#: linear-domain pass.
LOG_TINY = float(np.log(np.finfo(np.float64).tiny))

#: Slack for the normalization proof: a weighted sum whose float weights sum
#: to 1.0 can accumulate a few ULPs above 1 across a deep reduction.
NORMALIZATION_TOLERANCE = 1e-6

#: The smallest positive float64.  One rounding below the normal range adds
#: at most half of it (``2**-1075``) as absolute error.
_SMALLEST_SUBNORMAL = 2.0 ** -1074

#: The floor is ``2**40 * G * 2**-1074``, i.e. ``2**41`` times the total
#: subnormal error ``G * 2**-1075``: a root at or above it carries at most a
#: ``2**-41`` relative error from underflow, and the tolerance's ``2**-40``
#: keeps a factor of two for the first-order bound's slack.
_FLOOR_MARGIN = 2.0 ** 40

#: ``G`` times this is the floor: one normal power of two, so the product
#: rounds once even when the floor itself is subnormal.
_FLOOR_SCALE = _SMALLEST_SUBNORMAL * _FLOOR_MARGIN

#: Unit roundoff of float64 round-to-nearest.
_UNIT_ROUNDOFF = 2.0 ** -53


@dataclass(frozen=True)
class TapeAnalysis:
    """Facts the abstract interpreter established about one tape.

    All bounds are sound over-approximations: every concrete evidence batch
    stays inside them, but not every point inside them is reachable.
    """

    #: Linear-domain interval of the root value.
    root_lower: float
    root_upper: float
    #: ``log(root_upper)`` — an upper bound on every log-domain output.
    root_log_upper: float
    #: The tape is proved normalized: log-domain output ``<= 0`` always.
    proves_log_nonpositive: bool
    #: The root can be exactly zero (log-domain ``-inf`` is reachable).
    zero_possible: bool
    #: Lower bound on ``log(v)`` over strictly positive root values ``v``
    #: (``+inf`` when the root can never be positive).
    min_positive_log: float
    #: ``min_positive_log < LOG_TINY``: a linear-domain pass may underflow a
    #: non-zero probability to 0.0 (use the log domain for this tape).
    underflow_risk: bool
    #: A linear intermediate can overflow to ``inf`` (makes log-domain
    #: ``NaN`` via ``inf - inf`` conceivable); never true for normalized
    #: tapes.
    overflow_possible: bool
    #: Depth of the deepest dependency chain (ASAP level of the last kernel).
    depth: int
    #: ``G``: sum of every operation slot's sensitivity bound — the root's
    #: worst-case gain on errors injected inside the tape (``inf`` when the
    #: interval bounds are not finite).
    error_gain: float
    #: Most roundings any single term of the root polynomial passes
    #: through: ``0`` at inputs, ``max(a, b) + 1`` at a sum,
    #: ``a + b + 1`` at a product.  At least ``depth``, because a product
    #: of ``n`` factors rounds ``n - 1`` times whatever its tree shape.
    rounding_depth: int
    #: Smallest linear root whose ``log`` is certified:
    #: ``G * 2**-1074 * 2**40`` (never below the smallest subnormal, so a
    #: zero root is never certified), or ``inf`` when the tape may
    #: overflow or has constants outside ``[0, inf)``.
    log_floor: float

    @property
    def log_tolerance(self) -> float:
        """Absolute bound on ``|log(r) - log(p)|`` for a certified root.

        ``r`` is the linear pass's root (``log_floor <= r < inf``) and
        ``p`` the exact probability: ``rounding_depth * 2**-52`` covers
        the relative rounding of every term (twice the first-order
        ``rounding_depth * 2**-53``, which absorbs the higher-order terms
        and the float rounding of the bounds themselves) and ``2**-40``
        the subnormal error the floor admits.  The final float ``np.log``
        adds at most two ulps of its output on top.
        """
        return self.rounding_depth * 2.0 * _UNIT_ROUNDOFF + 2.0 ** -40


def analyze_tape(tape, tolerance: float = NORMALIZATION_TOLERANCE) -> TapeAnalysis:
    """Abstractly interpret ``tape`` and return the established facts.

    Assumes the tape passed :func:`~repro.statics.verifier.verify_tape`
    (in particular: non-negative finite input parameters, def-before-use).
    """
    n_slots = tape.n_slots
    n_inputs = tape.n_inputs
    lo = np.zeros(n_slots, dtype=np.float64)
    hi = np.zeros(n_slots, dtype=np.float64)
    # Lower bound on log(v) for strictly positive v; +inf = never positive.
    log_min_pos = np.zeros(n_slots, dtype=np.float64)
    can_zero = np.zeros(n_slots, dtype=bool)

    for spec in tape.inputs:
        if spec.kind == "indicator":
            lo[spec.index] = 0.0
            hi[spec.index] = 1.0
            log_min_pos[spec.index] = 0.0  # the only positive value is 1
            can_zero[spec.index] = True  # an indicator miss
        else:
            prob = float(spec.prob)
            lo[spec.index] = prob
            hi[spec.index] = prob
            if prob > 0.0:
                log_min_pos[spec.index] = np.log(prob)
                can_zero[spec.index] = False
            else:
                log_min_pos[spec.index] = np.inf
                can_zero[spec.index] = True

    rounds = np.zeros(n_slots, dtype=np.float64)
    with np.errstate(invalid="ignore", over="ignore"):
        for kernel in tape.kernels:
            dest = slice(kernel.dest_start, kernel.dest_stop)
            a0, a1 = kernel.arg0, kernel.arg1
            if kernel.is_add:
                lo[dest] = lo[a0] + lo[a1]
                hi[dest] = hi[a0] + hi[a1]
                # A positive sum has at least one positive operand, and a sum
                # of non-negatives is >= each of them.
                log_min_pos[dest] = np.minimum(log_min_pos[a0], log_min_pos[a1])
                can_zero[dest] = can_zero[a0] & can_zero[a1]
                rounds[dest] = np.maximum(rounds[a0], rounds[a1]) + 1.0
            else:
                lo[dest] = lo[a0] * lo[a1]
                hi[dest] = hi[a0] * hi[a1]
                # A positive product has both factors positive.
                log_min_pos[dest] = log_min_pos[a0] + log_min_pos[a1]
                can_zero[dest] = can_zero[a0] | can_zero[a1]
                rounds[dest] = rounds[a0] + rounds[a1] + 1.0

    root = tape.root_slot
    root_upper = float(hi[root])
    with np.errstate(divide="ignore"):
        root_log_upper = float(np.log(root_upper)) if root_upper >= 0 else np.nan
    min_positive_log = float(log_min_pos[root])
    op_hi = hi[n_inputs:] if n_slots > n_inputs else hi
    adj = slot_sensitivity(tape, hi)
    gain = float(adj[n_inputs:].sum())
    # Negative constants break the monotonicity every bound above rests on.
    certifiable = np.isfinite(gain) and np.all(np.isfinite(hi)) and np.all(lo >= 0.0)
    log_floor = max(gain * _FLOOR_SCALE, _SMALLEST_SUBNORMAL) if certifiable else np.inf
    return TapeAnalysis(
        root_lower=float(lo[root]),
        root_upper=root_upper,
        root_log_upper=root_log_upper,
        proves_log_nonpositive=bool(np.isfinite(root_upper) and root_upper <= 1.0 + tolerance),
        zero_possible=bool(can_zero[root]),
        min_positive_log=min_positive_log,
        underflow_risk=bool(min_positive_log < LOG_TINY),
        overflow_possible=bool(not np.all(np.isfinite(op_hi))),
        depth=tape.kernels[-1].level if tape.kernels else 0,
        error_gain=gain,
        rounding_depth=int(rounds[root]),
        log_floor=float(log_floor),
    )


def slot_sensitivity(tape, hi: np.ndarray) -> np.ndarray:
    """Upper bounds on ``d root / d slot`` over every evidence batch.

    One backward pass in reverse tape order (every consumer of a slot
    comes after it): ``adj[root] = 1``; a sum adds ``adj[dest]`` to each
    operand, a product adds ``adj[dest] * hi[other operand]``, where
    ``hi`` are the linear interval upper bounds.  Sound for tapes with
    non-negative inputs, where both operations are monotone and the
    partial derivative of a product by one operand is the other operand.
    """
    adj = np.zeros(tape.n_slots, dtype=np.float64)
    adj[tape.root_slot] = 1.0
    with np.errstate(invalid="ignore", over="ignore"):
        for kernel in reversed(tape.kernels):
            grad = adj[kernel.dest_start : kernel.dest_stop].copy()
            if kernel.is_add:
                np.add.at(adj, kernel.arg0, grad)
                np.add.at(adj, kernel.arg1, grad)
            else:
                np.add.at(adj, kernel.arg0, grad * hi[kernel.arg1])
                np.add.at(adj, kernel.arg1, grad * hi[kernel.arg0])
    return adj
