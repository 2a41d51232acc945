#!/usr/bin/env python3
"""Online sensor-health monitoring through the inference service (Fig. 1 scenario).

The paper motivates the processor with hybrid autonomous systems (drones,
robots) that use deep learning for perception and probabilistic reasoning
for robust decisions.  This example plays that scenario as an *online*
system: instead of scoring an offline batch, a fleet of drones streams
telemetry readings into a shared :class:`repro.serving.InferenceServer`,
which coalesces the concurrent single-reading queries into micro-batches
(`docs/serving.md`):

1. generate a synthetic telemetry dataset with correlated sensor groups
   (IMU, GPS, barometer, motor currents) and learn an SPN from it,
2. host the learned model on an inference server and stream held-out
   readings through the ``asyncio`` client, flagging anomalies in flight,
3. when a sensor bank drops out mid-stream, infer its most probable state
   from the surviving sensors with an MPE query over the same service,
4. compare served dynamic-batching throughput against one-at-a-time
   evaluation — the gap is exactly what the serving layer exists to close.
"""

import asyncio
import time

import numpy as np

from repro.api import InferenceSession, LogLikelihood, Marginal
from repro.serving import AsyncInferenceClient, BatchingPolicy, InferenceServer
from repro.spn import (
    DatasetSpec,
    LearnConfig,
    generate_dataset,
    learn_spn,
    train_test_split,
)

N_SENSORS = 16  # four groups of four correlated binary health indicators
MODEL = "sensor-health"


def build_stream(test: np.ndarray, n_readings: int = 200) -> np.ndarray:
    """Interleave nominal held-out readings with a few corrupted ones."""
    rng = np.random.default_rng(7)
    stream = test[rng.integers(0, len(test), size=n_readings)].copy()
    for i in rng.choice(n_readings, size=n_readings // 20, replace=False):
        stream[i] = 1 - stream[i]  # flip every sensor: clearly inconsistent
    return stream


async def monitor(server: InferenceServer, stream: np.ndarray, threshold: float):
    """Score every incoming reading concurrently; return (scores, alerts)."""
    client = AsyncInferenceClient(server, model=MODEL)

    async def score(reading: np.ndarray) -> float:
        return await client.log_likelihood(reading)

    scores = await asyncio.gather(*[score(r) for r in stream])
    alerts = [i for i, s in enumerate(scores) if s < threshold]
    return np.array(scores), alerts


def main() -> None:
    # --- 1. telemetry data + model ------------------------------------------- #
    data = generate_dataset(
        DatasetSpec(n_vars=N_SENSORS, n_rows=1500, n_clusters=4, noise=0.08, seed=42)
    )
    train, test = train_test_split(data, test_fraction=0.2, seed=0)
    model = learn_spn(train, LearnConfig(min_instances=64, seed=1))
    print("learned SPN:", model.stats())
    # One typed-query session answers the offline questions (batched,
    # normalized log-marginals) and later doubles as the exactness oracle.
    session = InferenceSession(model)
    held_out = float(np.mean(session.run(Marginal(test, log=True, normalize=True))))
    print("  held-out log-likelihood per row:", round(held_out, 3))

    # --- 2. stream readings through the serving layer ------------------------ #
    train_ll = float(np.mean(session.run(Marginal(train, log=True, normalize=True))))
    threshold = train_ll - 3.0  # crude anomaly threshold
    stream = build_stream(test)
    policy = BatchingPolicy(max_batch_size=32, max_wait_s=0.002)
    with InferenceServer(models={MODEL: model}, policy=policy) as server:
        start = time.perf_counter()
        scores, alerts = asyncio.run(monitor(server, stream, threshold))
        streamed_s = time.perf_counter() - start
        print(f"\nstreamed {len(stream)} readings: {len(alerts)} ALERTs "
              f"(threshold {threshold:.3f})")
        for i in alerts[:3]:
            print(f"  reading #{i:3d}: log-probability {scores[i]:8.3f} -> ALERT")

        # --- 3. a sensor bank fails mid-stream ------------------------------- #
        # The GPS bank (variables 8..11) drops out; its most probable state is
        # inferred from the surviving sensors with an MPE query.
        reading = stream[len(stream) // 2]
        partial = {i: int(v) for i, v in enumerate(reading) if not 8 <= i <= 11}
        completion = server.query(MODEL, partial, kind="mpe")[0]
        inferred = {i: completion[i] for i in range(8, 12)}
        print("  GPS bank masked; inferred most probable state:", inferred)

        snapshot = server.metrics.snapshot()

    # --- 4. what the batching bought ----------------------------------------- #
    start = time.perf_counter()
    one_at_a_time = np.array(
        [
            session.run(LogLikelihood(stream[i : i + 1]))[0]
            for i in range(len(stream))
        ]
    )
    sequential_s = time.perf_counter() - start
    assert np.array_equal(one_at_a_time, scores), "serving must be bit-identical"
    print("\nserving telemetry:")
    print(f"  latency p50/p99      : {snapshot['latency_p50_ms']:.2f} / "
          f"{snapshot['latency_p99_ms']:.2f} ms")
    print(f"  mean batch occupancy : {snapshot['mean_batch_occupancy']:.2f} "
          f"({snapshot['batches']:.0f} micro-batches)")
    print(f"  throughput           : {len(stream) / streamed_s:8.0f} readings/s served "
          f"vs {len(stream) / sequential_s:8.0f} one-at-a-time "
          f"({sequential_s / streamed_s:.1f}x)")
    print("  (this demo model is tiny — ~300 ops — so per-call overhead, not "
          "compute, is the bottleneck;\n   for suite-sized networks see the "
          "'serving' section of BENCH_sweeps.json)")


if __name__ == "__main__":
    main()
