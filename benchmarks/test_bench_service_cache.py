"""E20 (extension) — carbon-data serving layer: cache and coalescing win.

The paper's operational vision (§3.1/§3.3) has every scheduler pass,
power-stack controller, and accounting sweep consulting grid carbon
data.  Against a real provider API each consult is a network round
trip; ``repro.service.CarbonService`` amortises them with an LRU spot
cache and single-flight coalescing.  This bench quantifies the win on
a scheduler-shaped query stream (Zipf-ish working set of recent
quantized timestamps) against a backend with a simulated per-call
latency.

Acceptance: the warm cached service answers the stream >= 10x faster
than the uncached backend, and its metrics counters exactly match the
observed hit/miss split.
"""

import numpy as np

from benchmarks.conftest import report
from repro import units
from repro.grid import SyntheticProvider
from repro.service import CarbonService, SlowProvider

#: milliseconds per second, for the report's latencies
MS_PER_S = 1000.0

N_QUERIES = 2000
QUANTIZE_S = 5 * units.SECONDS_PER_MINUTE
BACKEND_LATENCY_S = 0.0005  # 0.5 ms simulated round trip
WORKING_SET = 32
REPEAT_FRACTION = 0.95  # scheduler passes mostly re-query "now-ish"


def query_stream(seed=0):
    """A scheduler-shaped stream: mostly re-queries of a small recent
    working set, occasionally a brand-new timestamp."""
    rng = np.random.default_rng(seed)
    recent = []
    times = []
    for _ in range(N_QUERIES):
        if recent and rng.random() < REPEAT_FRACTION:
            times.append(recent[rng.integers(len(recent))])
        else:
            t = float(rng.uniform(0.0, 2 * units.SECONDS_PER_DAY))
            times.append(t)
            recent.append(t)
            if len(recent) > WORKING_SET:
                recent.pop(0)
    return times


def run_uncached(times):
    backend = SlowProvider(SyntheticProvider("DE", seed=0),
                           latency_s=BACKEND_LATENCY_S)
    return [backend.intensity_at(t) for t in times]


def run_cached(times):
    backend = SlowProvider(SyntheticProvider("DE", seed=0),
                           latency_s=BACKEND_LATENCY_S)
    service = CarbonService(backend, quantize_s=QUANTIZE_S,
                            sleep=lambda _s: None)
    values = [service.intensity_at(t) for t in times]
    return values, service, backend


def unique_bins(times):
    return len({int(t // QUANTIZE_S) for t in times})


def test_bench_service_cache(benchmark):
    times = query_stream()

    import time
    t0 = time.perf_counter()
    run_uncached(times)
    uncached_s = time.perf_counter() - t0

    (values, service, backend) = benchmark.pedantic(
        run_cached, args=(times,), rounds=1, iterations=1)
    t0 = time.perf_counter()
    run_cached(times)
    cached_s = time.perf_counter() - t0

    snap = service.snapshot()
    speedup = uncached_s / cached_s

    # the cached service is at least an order of magnitude faster
    assert speedup >= 10.0, f"speedup {speedup:.1f}x < 10x"

    # counters match the observed traffic exactly
    assert snap["cache.hits"] + snap["cache.misses"] == N_QUERIES
    assert snap["cache.misses"] == unique_bins(times)
    assert snap["backend.calls"] == unique_bins(times)
    assert backend.calls == unique_bins(times)
    assert len(values) == N_QUERIES

    quantize_min = QUANTIZE_S / units.SECONDS_PER_MINUTE
    latency_ms = BACKEND_LATENCY_S * MS_PER_S
    report(
        "E20 — serving-layer cache win (extension)",
        "\n".join([
            f"queries                 {N_QUERIES}",
            f"quantization            {quantize_min:.0f} min bins",
            f"unique bins             {unique_bins(times)}",
            f"backend latency         {latency_ms:.2f} ms/call",
            f"uncached wall time      {uncached_s * MS_PER_S:8.1f} ms",
            f"cached wall time        {cached_s * MS_PER_S:8.1f} ms",
            f"speedup                 {speedup:8.1f}x",
            f"hit rate                {service.cache.hit_rate:8.1%}",
            f"backend calls           {backend.calls}",
        ]))


def test_bench_batch_coalescing(benchmark):
    """A burst of duplicate (zone, time) queries — e.g. every queued job
    asking for the same forecast window — collapses to one backend call
    per unique quantization bin."""
    rng = np.random.default_rng(1)
    bins = [float(b) * QUANTIZE_S for b in range(20)]
    burst = [bins[rng.integers(len(bins))] + float(rng.uniform(0, QUANTIZE_S))
             for _ in range(1000)]

    def run():
        backend = SlowProvider(SyntheticProvider("DE", seed=0),
                               latency_s=BACKEND_LATENCY_S)
        service = CarbonService(backend, quantize_s=QUANTIZE_S,
                                sleep=lambda _s: None)
        out = service.batch_intensity(burst)
        return out, service, backend

    out, service, backend = benchmark.pedantic(run, rounds=1, iterations=1)
    snap = service.snapshot()

    assert out.shape == (1000,)
    assert backend.calls == len(bins)  # one fetch per unique bin
    assert snap["coalesce.fetches"] == len(bins)
    assert snap["coalesce.deduplicated"] == 1000 - len(bins)

    report(
        "E20b — batch coalescing (extension)",
        "\n".join([
            f"burst size              1000",
            f"unique bins             {len(bins)}",
            f"backend calls           {backend.calls}",
            f"deduplicated            {snap['coalesce.deduplicated']}",
        ]))
