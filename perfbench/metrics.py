"""From instance outputs to the metrics ``BENCHMARK.json`` declares.

End-to-end metrics come from untraced instances; per-layer metrics from
traced ones.  Simulated figures repeat exactly at a fixed seed.
"""

from __future__ import annotations

import json
import os
import statistics
import numpy as np

from tracing import SpanTracer
from workloads import decode_array

BENCHMARK_JSON = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
    "BENCHMARK.json",
)

def declared() -> dict:
    """``BENCHMARK.json`` as a dict."""
    with open(BENCHMARK_JSON) as fh:
        return json.load(fh)


def end_to_end(instances: list[dict]) -> dict[str, float]:
    """End-to-end metrics of one run from its untraced instance outputs.

    ``wall_s`` is host seconds per simulation and ``events_per_s`` events
    per host second inside ``Simulator.run``, both totals over every
    simulation run divided by its count or time: per-simulation cost is
    heavy-tailed on ``chain_tcp``, and the totals came out steadier than
    medians across seeds.  ``setup_s`` and ``peak_rss_mib`` are medians
    over instances.  Delays pool every packet of the run's distinct
    instances; flow completion percentiles are taken within each
    instance, then the median over instances.
    """
    hosts = [inst["host"] for inst in instances]
    sims = [s for h in hosts for s in h["sims"]]
    distinct = {inst["index"]: inst for inst in instances}
    runs = [distinct[k] for k in sorted(distinct)]
    useful = sum(r["sim"]["useful_bytes"] for r in runs)
    flow_s = sum(r["sim"]["flow_s"] for r in runs)
    owd = np.concatenate([decode_array(r["owd_ms"]) for r in runs])
    fcts = [decode_array(r["fct_ms"]) for r in runs]
    return {
        "wall_s": sum(s["wall_s"] for s in sims) / len(sims),
        "setup_s": statistics.median(h["setup_s"] for h in hosts),
        "events_per_s": (
            sum(s["events"] for s in sims) / sum(s["sim_s"] for s in sims)
        ),
        "peak_rss_mib": statistics.median(h["peak_rss_mib"] for h in hosts),
        "goodput_mbps": useful * 8 / flow_s / 1e6,
        "owd_p50_ms": float(np.percentile(owd, 50)),
        "owd_p99_ms": float(np.percentile(owd, 99)),
        "fct_p50_ms": statistics.median(
            float(np.percentile(f, 50)) for f in fcts
        ),
        "fct_p99_ms": statistics.median(
            float(np.percentile(f, 99)) for f in fcts
        ),
        "wire_overhead": sum(r["sim"]["origin_bytes"] for r in runs) / useful,
    }


def traced_instance(
    tracer: SpanTracer, workload_layers: dict[str, float], wall_s: float
) -> dict[str, float]:
    """Per-layer figures of one traced instance.

    ``wall_s`` is the instance's in-process wall time; everything in it
    that no layer's self time covers is ``unattributed.self_s``.
    """
    self_s = tracer.self_time_by_span()
    inst = tracer.instances
    links = inst.get("Link", [])
    caches = inst.get("BlockCache", [])
    mids = inst.get("Midnode", [])
    consumers = inst.get("Consumer", [])
    senders = inst.get("TcpSender", [])
    sims = inst.get("Simulator", [])
    lookup_b = sum(c.stats.lookup_bytes for c in caches)
    recv_b = sum(c.bytes_received for c in consumers)
    dup_b = sum(c.duplicate_bytes_received for c in consumers)
    wire_total = tracer.wire_new + tracer.wire_reused
    attributed = sum(v for k, v in self_s.items() if k != "unattributed")

    out = {
        "simcore.events": sum(s.events_executed for s in sims),
        "simcore.heap_compactions": sum(s.heap_compactions for s in sims),
        "netsim.link.send_calls": tracer.calls("Link.send"),
        "netsim.link.drops_queue": sum(
            l.stats.packets_dropped_queue for l in links
        ),
        "netsim.link.drops_loss": sum(
            l.stats.packets_dropped_loss for l in links
        ),
        "netsim.link.max_queue_bytes": max(
            (l.stats.max_queue_bytes for l in links), default=0
        ),
        "common.ranges.add_calls": tracer.calls("RangeSet.add"),
        "core.cache.store_calls": tracer.calls("BlockCache.store"),
        "core.cache.lookup_calls": tracer.calls("BlockCache.lookup"),
        "core.cache.byte_hit_rate": (
            sum(c.stats.hit_bytes for c in caches) / lookup_b
            if lookup_b else 0.0
        ),
        "core.cache.cross_hit_bytes": sum(
            c.stats.cross_hit_bytes for c in caches
        ),
        "core.cache.evictions": sum(c.stats.evictions for c in caches),
        "core.congestion.calls": tracer.calls(span="core.congestion"),
        "core.midnode.ops": sum(m.stats.total_operations() for m in mids),
        "core.midnode.vph_sent": sum(m.stats.vph_sent for m in mids),
        "core.midnode.retx_interests": sum(
            m.stats.retx_interests_sent for m in mids
        ),
        "core.midnode.cache_responses": sum(
            m.stats.cache_responses for m in mids
        ),
        "core.consumer.interests_sent": sum(
            c.interests_sent for c in consumers
        ),
        "core.consumer.retx_interests": sum(
            c.retransmission_interests for c in consumers
        ),
        "core.consumer.dup_frac": (
            dup_b / (recv_b + dup_b) if recv_b + dup_b else 0.0
        ),
        "core.paced.enqueue_calls": tracer.calls("PacedSender.enqueue"),
        "core.wire.packets_new": tracer.wire_new,
        "core.wire.pool_hit_frac": (
            tracer.wire_reused / wire_total if wire_total else 0.0
        ),
        "tcp.retransmissions": sum(s.retransmissions for s in senders),
        "tcp.timeouts": sum(s.timeouts for s in senders),
        "unattributed.self_s": wall_s - attributed,
        "trace.wall_s": wall_s,
    }
    for span, metric in SELF_TIME_METRICS.items():
        out[metric] = self_s[span]
    for key in WORKLOAD_LAYER_KEYS:
        out[key] = workload_layers.get(key, 0.0)
    return out


#: The self-time metric of each span name but ``unattributed``.
SELF_TIME_METRICS = {
    "simcore": "simcore.self_s",
    "netsim.link": "netsim.link.self_s",
    "common.ranges": "common.ranges.self_s",
    "core.cache.store": "core.cache.store_self_s",
    "core.cache.lookup": "core.cache.lookup_self_s",
    "core.congestion": "core.congestion.self_s",
    "core.midnode": "core.midnode.self_s",
    "core.consumer": "core.consumer.self_s",
    "core.producer": "core.producer.self_s",
    "core.paced": "core.paced.self_s",
    "tcp": "tcp.self_s",
    "workload": "workload.self_s",
    "shard.exchange": "shard.exchange_self_s",
}

#: Per-layer figures the workloads read from their own objects.
WORKLOAD_LAYER_KEYS = (
    "netsim.link.busy_frac",
    "tcp.rcv_stall_s_max",
    "workload.flows_spawned",
    "workload.admission_rejects",
    "workload.budget_peak_mib",
    "workload.budget_breaches",
    "content.cross_hit_ratio",
    "content.origin_load_reduction",
    "shard.epochs",
    "shard.exchange_payload_bytes",
    "shard.exchange_report_bytes",
)

#: How a per-layer figure combines, first over an instance's simulations
#: and then over a run's instances.  Figures not listed are amounts:
#: summed over simulations, so an instance reports its total, and then
#: averaged over instances (which keeps ``layers + unattributed ==
#: trace.wall_s`` exact).  ``"mean"`` figures are averaged both times,
#: ``"max"`` figures take the maximum both times.
LAYER_COMBINE = {
    "netsim.link.busy_frac": "mean",
    "netsim.link.max_queue_bytes": "max",
    "tcp.rcv_stall_s_max": "max",
    "workload.budget_peak_mib": "max",
    "content.cross_hit_ratio": "mean",
    "content.origin_load_reduction": "mean",
}


def combine_layers(rows: list[dict], over: str) -> dict[str, float]:
    """Combine per-layer figures ``over`` ``"sims"`` or ``"instances"``."""
    out: dict[str, float] = {}
    for key in rows[0]:
        values = [row[key] for row in rows]
        how = LAYER_COMBINE.get(key)
        if how == "max":
            out[key] = max(values)
        elif how is None and over == "sims":
            out[key] = sum(values)
        else:
            out[key] = statistics.fmean(values)
    return out


def per_layer(
    traced: list[dict], untraced_wall_s: list[float]
) -> dict[str, float]:
    """Per-layer metrics of one run, combined over its traced instances.

    ``trace.overhead_frac`` compares the traced instances' in-process
    wall time with that of their untraced twins.
    """
    out = combine_layers([inst["trace"] for inst in traced], "instances")
    traced_wall = sum(inst["trace"]["trace.wall_s"] for inst in traced)
    out["trace.overhead_frac"] = traced_wall / sum(untraced_wall_s) - 1.0
    return out


def render(values: dict[str, float], kind: str) -> dict[str, dict]:
    """``{name: {"value", "unit"}}`` for every metric of ``kind``.

    ``kind`` is ``"end_to_end"`` or ``"per_layer"``; the computed names
    must be exactly the declared ones.
    """
    units = {m["name"]: m["unit"] for m in declared()[kind]}
    if set(values) != set(units):
        missing = sorted(set(units) - set(values))
        extra = sorted(set(values) - set(units))
        raise RuntimeError(
            f"{kind} metrics differ from BENCHMARK.json: "
            f"missing {missing}, undeclared {extra}"
        )
    return {
        name: {"value": float(values[name]), "unit": units[name]}
        for name in units
    }
