"""Traced runs: layer probes, self time, and the per-layer metrics.

The probes wrap the public calls of each layer in ``obs.span`` on the
instances one simulation builds, so the program itself is untouched.
Spans stay in memory while a simulation runs; when it ends they are
folded into a *summary* (count and self seconds per span name, plus
the few samples percentiles need) stored as attributes of one
``bench.sim`` span.  Summaries are plain dicts, so they travel back from
sweep pool workers inside the spans ``run_sweep`` already ships, and
they add up across simulations.

A span's self time is its duration minus the part of its interval its
child spans cover; a layer's self time is the sum over its span names.
"""

from __future__ import annotations

import functools
import statistics
from typing import Any, Callable, Dict, Iterable, List, Mapping, Optional

from repro import obs

#: span name -> layer.  ``sim.run``, ``rjms.run``, ``rjms.schedule``,
#: ``service.backend_call`` and ``sweep.*`` are the program's own spans;
#: the others come from the probes :func:`attach` installs.
LAYER_OF = {
    "sim.run": "engine", "sim.run_until": "engine",
    "engine.schedule": "engine",
    "rjms.run": "rjms", "rjms.call": "rjms", "rjms.event": "rjms",
    "rjms.schedule": "rjms", "rjms.set_job_cap": "rjms",
    "rjms.suspend_job": "rjms", "rjms.resume_job": "rjms",
    "policy.schedule": "policy",
    "forecast.fit": "forecast", "forecast.predict": "forecast",
    "intensity.integrate": "intensity",
    "service.intensity_at": "service",
    "service.average_intensity_at": "service",
    "service.history": "service", "service.backend_call": "service",
    "provider.intensity_at": "provider",
    "provider.average_intensity_at": "provider",
    "provider.history": "provider",
    "cluster.current_power": "cluster", "cluster.accrue": "cluster",
    "cluster.allocate": "cluster", "cluster.release": "cluster",
    "cluster.set_job_cap": "cluster",
    "powerstack.on_tick": "powerstack",
    "checkpoint.on_tick": "checkpoint",
    "sweep.run": "parallel", "sweep.cell": "parallel",
}

#: ``bench.sim`` attributes summed across simulations
SIM_ATTRS = ("accounts", "telemetry_points", "power_segments", "events",
             "queued_at_start", "cache_hits", "cache_misses", "retries")

#: per-layer metrics that are counts (or ratios of counts): they must
#: repeat exactly across traced runs of one workload
COUNT_METRICS = (
    "engine.events", "engine.scheduled", "engine.live_ratio",
    "rjms.accounts_final", "rjms.running_mean", "rjms.telemetry_points",
    "rjms.power_segments", "policy.calls", "forecast.fits",
    "forecast.fits_per_pass", "intensity.integrals", "provider.calls",
    "service.calls", "service.hit_ratio", "service.lookups",
    "service.retries", "cluster.power_calls", "powerstack.ticks",
    "powerstack.cap_changes", "checkpoint.suspends",
    "checkpoint.resumes", "sweep.cells",
)


def _spanned(name: str, fn: Callable,
             on_result: Optional[Callable] = None) -> Callable:
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with obs.span(name):
            out = fn(*args, **kwargs)
        return out if on_result is None else on_result(out)
    return wrapper


def _wrap(obj: Any, names: Iterable[str], prefix: str,
          on_result: Optional[Callable] = None) -> None:
    # object.__setattr__: intensity traces are frozen dataclasses
    for name in names:
        object.__setattr__(obj, name, _spanned(
            f"{prefix}.{name}", getattr(obj, name), on_result))


def _probe_trace(trace):
    """Span a trace's integral (``mean_over`` and ``carbon_for_power``
    both go through it).  Cached traces come back more than once, so
    each instance is probed once."""
    if "integrate_intensity" not in vars(trace):
        object.__setattr__(trace, "integrate_intensity", _spanned(
            "intensity.integrate", trace.integrate_intensity))
    return trace


def attach(rjms, managers: Mapping[str, Any]) -> None:
    """Wrap every layer's public calls on one built simulation;
    ``managers`` maps a layer name to the RJMS manager of that layer."""
    engine = rjms.engine

    def event(callback):
        @functools.wraps(callback)
        def run_event():
            with obs.span("rjms.event"):
                callback()
        return run_event

    schedule_at = engine.schedule_at

    def schedule(time, callback, priority=5, label=""):
        with obs.span("engine.schedule"):
            return schedule_at(time, event(callback), priority, label)
    engine.schedule_at = schedule
    # arrivals were queued while the RJMS was built, before this probe:
    # route their callbacks through the same event span
    for ev in engine._heap:
        ev.callback = event(ev.callback)

    _wrap(rjms, ("set_job_cap", "suspend_job", "resume_job"), "rjms")
    rjms.run = _spanned("rjms.call", rjms.run)
    _wrap(rjms.policy, ("schedule",), "policy")
    forecaster = getattr(rjms.policy, "forecaster", None)
    if forecaster is not None:
        _wrap(forecaster, ("fit",), "forecast")
        _wrap(forecaster, ("predict",), "forecast", _probe_trace)
    service = rjms.provider
    _wrap(service, ("intensity_at", "average_intensity_at"), "service")
    _wrap(service, ("history",), "service", _probe_trace)
    _wrap(service.backend, ("intensity_at", "average_intensity_at",
                            "history"), "provider")
    _wrap(rjms.cluster, ("current_power", "accrue", "allocate", "release",
                         "set_job_cap"), "cluster")
    for layer, mgr in managers.items():
        _wrap(mgr, ("on_tick",), layer)


def summarize(spans) -> Dict[str, Any]:
    """Fold finished spans into a summary (see the module docstring)."""
    children: Dict[Optional[str], List[Any]] = {}
    for s in spans:
        children.setdefault(s.parent_id, []).append(s)
    out = empty_summary()
    for s in spans:
        if s.name == "bench.sim":
            merge_into(out, s.attrs["summary"])
            continue
        kids = children.get(s.span_id, ())
        covered = sum(c.dur_s for c in kids)
        if covered > s.dur_s:  # parallel children (adopted pool spans)
            covered = _union(kids, s.start_s, s.end_s)
        out["n"][s.name] = out["n"].get(s.name, 0) + 1
        out["self_s"][s.name] = (out["self_s"].get(s.name, 0.0)
                                 + max(0.0, s.dur_s - covered))
        if s.name == "policy.schedule":
            out["policy_ms"].append(s.dur_s * 1e3)
        elif s.name == "rjms.schedule":
            out["running"].append(s.attrs.get("running", 0))
    return out


def _union(spans, lo: float, hi: float) -> float:
    """Length of the union of the spans' intervals, clipped to [lo, hi]."""
    total, end = 0.0, lo
    for c in sorted(spans, key=lambda c: c.start_s):
        a, b = max(c.start_s, end), min(c.end_s, hi)
        if b > a:
            total += b - a
            end = b
    return total


def empty_summary() -> Dict[str, Any]:
    return {"n": {}, "self_s": {}, "policy_ms": [], "running": [],
            "sim": {k: 0 for k in SIM_ATTRS}}


def merge_into(acc: Dict[str, Any], other: Dict[str, Any]) -> None:
    for key in ("n", "self_s", "sim"):
        for name, v in other[key].items():
            acc[key][name] = acc[key].get(name, 0) + v
    acc["policy_ms"].extend(other["policy_ms"])
    acc["running"].extend(other["running"])


def run_traced(rjms, managers: Mapping[str, Any]):
    """Run one simulation with probes attached; its spans are folded
    into the ``bench.sim`` span's ``summary`` attribute when it ends."""
    attach(rjms, managers)
    tracer = obs.get_tracer()
    with obs.span("bench.sim") as span:
        first = len(tracer.spans)
        queued = rjms.engine.pending
        result = rjms.run()
        inner = tracer.spans[first:]
        del tracer.spans[first:]
        summary = summarize(inner)
        service = rjms.provider
        summary["sim"].update(
            accounts=len(rjms.accounts),
            telemetry_points=sum(len(rjms.telemetry.series(name)[0])
                                 for name in rjms.telemetry.sensors()),
            power_segments=len(rjms.cluster.power_segments()),
            events=rjms.engine.processed,
            queued_at_start=queued,
            cache_hits=service.metrics.counter("cache.hits").value,
            cache_misses=service.metrics.counter("cache.misses").value,
            retries=service.metrics.counter("backend.retries").value)
        span.set_attr("summary", summary)
    return result


def _layer_s(summary: Dict[str, Any], layer: str) -> float:
    return sum(v for name, v in summary["self_s"].items()
               if LAYER_OF.get(name) == layer)


def _count(summary: Dict[str, Any], *names: str) -> int:
    return sum(summary["n"].get(n, 0) for n in names)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(values: List[float], q: float) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[
        int(round(q * 100)) - 1]


def layer_metrics(summary: Dict[str, Any]) -> Dict[str, float]:
    """Per-layer metrics of one traced pass (sweep metrics excluded)."""
    sim = summary["sim"]
    scheduled = _count(summary, "engine.schedule") + sim["queued_at_start"]
    policy_calls = _count(summary, "policy.schedule")
    fits = _count(summary, "forecast.fit")
    lookups = sim["cache_hits"] + sim["cache_misses"]
    return {
        "engine.events": sim["events"],
        "engine.scheduled": scheduled,
        "engine.live_ratio": _ratio(sim["events"], scheduled),
        "engine.self_s": _layer_s(summary, "engine"),
        "rjms.self_s": _layer_s(summary, "rjms"),
        "rjms.accounts_final": sim["accounts"],
        "rjms.running_mean": (statistics.fmean(summary["running"])
                              if summary["running"] else 0.0),
        "rjms.telemetry_points": sim["telemetry_points"],
        "rjms.power_segments": sim["power_segments"],
        "policy.calls": policy_calls,
        "policy.p50_ms": _quantile(summary["policy_ms"], 0.50),
        "policy.p99_ms": _quantile(summary["policy_ms"], 0.99),
        "policy.self_s": _layer_s(summary, "policy"),
        "forecast.fits": fits,
        "forecast.fits_per_pass": _ratio(fits, policy_calls),
        "forecast.s": _layer_s(summary, "forecast"),
        "intensity.integrals": _count(summary, "intensity.integrate"),
        "intensity.s": _layer_s(summary, "intensity"),
        "provider.calls": _count(summary, "provider.intensity_at",
                                 "provider.average_intensity_at",
                                 "provider.history"),
        "provider.s": _layer_s(summary, "provider"),
        "service.calls": _count(summary, "service.intensity_at",
                                "service.average_intensity_at",
                                "service.history"),
        "service.s": _layer_s(summary, "service"),
        "service.hit_ratio": _ratio(sim["cache_hits"], lookups),
        "service.lookups": lookups,
        "service.retries": sim["retries"],
        "cluster.power_calls": _count(summary, "cluster.current_power"),
        "cluster.s": _layer_s(summary, "cluster"),
        "powerstack.ticks": _count(summary, "powerstack.on_tick"),
        "powerstack.cap_changes": _count(summary, "rjms.set_job_cap"),
        "powerstack.s": _layer_s(summary, "powerstack"),
        "checkpoint.suspends": _count(summary, "rjms.suspend_job"),
        "checkpoint.resumes": _count(summary, "rjms.resume_job"),
        "checkpoint.s": _layer_s(summary, "checkpoint"),
    }


def render_summary(summary: Dict[str, Any]) -> str:
    """Per-span-name table of a traced pass: count and self seconds."""
    rows = sorted(summary["n"], key=lambda n: -summary["self_s"][n])
    lines = [f"{'span':<30} {'layer':<11} {'count':>9} {'self_s':>10}"]
    for name in rows:
        lines.append(f"{name:<30} {LAYER_OF.get(name, '-'):<11} "
                     f"{summary['n'][name]:>9d} "
                     f"{summary['self_s'][name]:>10.4f}")
    return "\n".join(lines)
