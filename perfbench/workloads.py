"""The benchmark's workloads: build, run, check and summarise simulations.

A run of a workload starts a fixed number of *instances*, each a fresh
interpreter (``instance.py``) that runs a fixed batch of simulations
back to back.  Every simulation has its own seed derived from the run's
``--seed``, so a run's simulated results depend on that seed alone, and
a run pools enough independent simulations that its figures do not
swing with the seed.

* ``chain_leotp`` — fixed-size LEOTP objects over a 4-hop chain of
  20 Mbps / 10 ms hops with 0.5 % Bernoulli loss per hop: the per-packet
  hot path with every LEOTP layer on it.
* ``chain_tcp`` — the same objects over the same chain with end-to-end
  TCP-BBR: kernel, links, ranges and ``tcp`` only; no ``core`` layer.
* ``pool_content`` — a serial sharded many-flow run shaped like
  ``content_study``'s sharded cell: Zipf catalog, gateway+LRU cache
  placement, Poisson arrivals with lognormal sizes, every fourth shard
  blacked out mid-run.

Each runner returns a :class:`SimResult`: the simulated figures the
end-to-end metrics are built from, the per-layer figures the workload
itself can read (link busy time, pool budget, exchange bytes, ...), the
output-check failures, and a digest of everything simulated.
"""

from __future__ import annotations

import base64
import hashlib
import json
import struct
from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from tracing import on_init

#: Chain shape of every ``chain_*`` simulation (``test_e2e_leotp_transfer``).
CHAIN_HOPS = 4
CHAIN_RATE_BPS = 20e6
CHAIN_DELAY_S = 0.010
CHAIN_PLR = 0.005
#: Simulated deadline: an object not delivered in order by then failed.
CHAIN_DEADLINE_S = 120.0


@dataclass(frozen=True)
class Size:
    """Simulation sizes; ``tiny`` exists for the harness's own tests."""

    object_bytes: int
    n_shards: int
    arrivals_per_shard: int


SIZES = {
    "full": Size(object_bytes=5_000_000, n_shards=16, arrivals_per_shard=120),
    "tiny": Size(object_bytes=300_000, n_shards=4, arrivals_per_shard=12),
}

#: ``(instances per run, simulations per instance)``.  TCP transfers are
#: heavy-tailed (see README: a lost retransmission stalls delivery to
#: the end of the object), so ``chain_tcp`` pools twice as many.
PLANS = {
    "chain_leotp": (4, 6),
    "chain_tcp": (4, 12),
    "pool_content": (5, 1),
}

WORKLOADS = tuple(PLANS)


def load_program() -> None:
    """Import every program module the workloads use."""
    import repro.experiments.common  # noqa: F401
    import repro.experiments.content_study  # noqa: F401
    import repro.shard  # noqa: F401


def sim_seed(seed: int, instance: int, sim: int) -> int:
    """The seed of simulation ``sim`` of instance ``instance`` of a run."""
    return (seed * 100 + instance) * 100 + sim


def encode_array(values) -> str:
    return base64.b64encode(
        np.asarray(values, dtype="<f8").tobytes()
    ).decode("ascii")


def decode_array(text: str) -> np.ndarray:
    return np.frombuffer(base64.b64decode(text), dtype="<f8")


@dataclass
class SimResult:
    attempted: int
    failed: int
    failures: list[str]
    digest: str
    #: Totals the end-to-end metrics aggregate: ``useful_bytes``,
    #: ``flow_s``, ``origin_bytes``, ``events``.
    sim: dict[str, float]
    #: First-arrival (chains) or in-order delivery (pool) delays, ms.
    owd_ms: np.ndarray
    #: Completion time of every completed flow, ms.
    fct_ms: np.ndarray
    #: Per-layer figures read from this workload's own objects.
    layers: dict[str, float] = field(default_factory=dict)


class Digest:
    """SHA-256 over simulated values, floats by their exact bit pattern."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, float):
                self._h.update(b"f" + struct.pack("<d", v))
            elif isinstance(v, np.ndarray):
                self._h.update(b"a" + np.ascontiguousarray(v).tobytes())
            else:
                self._h.update(b"j" + json.dumps(v, sort_keys=True).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _link_busy_frac(duplex_links, elapsed_s: float) -> float:
    links = [d.ab for d in duplex_links] + [d.ba for d in duplex_links]
    if elapsed_s <= 0 or not links:
        return 0.0
    return sum(l.stats.busy_time_s for l in links) / (elapsed_s * len(links))


def _link_digest(digest: Digest, duplex_links) -> None:
    for d in duplex_links:
        for link in (d.ab, d.ba):
            s = link.stats
            digest.add(
                s.packets_offered, s.packets_delivered,
                s.packets_dropped_queue, s.packets_dropped_loss,
                s.bytes_delivered, s.busy_time_s, s.max_queue_bytes,
            )


class _AppSink:
    """The application end of a chain: receives in-order deliveries."""

    def __init__(self, sim) -> None:
        self.sim = sim
        self.times: list[float] = []
        self.sizes: list[int] = []

    def __call__(self, nbytes: int, origin_ts: float) -> None:
        self.times.append(self.sim.now)
        self.sizes.append(nbytes)


# ----------------------------------------------------------------------
# Chains
# ----------------------------------------------------------------------


def _run_chain(protocol: str, seed: int, size: Size) -> SimResult:
    from repro.experiments.common import PathSpec, build_path
    from repro.netsim.topology import uniform_chain_specs
    from repro.simcore import RngRegistry, Simulator

    total = size.object_bytes
    hops = uniform_chain_specs(
        CHAIN_HOPS, rate_bps=CHAIN_RATE_BPS, delay_s=CHAIN_DELAY_S,
        plr=CHAIN_PLR,
    )
    sim = Simulator()
    path = build_path(sim, RngRegistry(seed), PathSpec(
        protocol=protocol, hops=tuple(hops), cc_name="bbr",
        total_bytes=total,
    ))
    app = _AppSink(sim)
    if protocol == "leotp":
        endpoint, origin = path.consumer, path.producer
    else:
        endpoint, origin = path.receiver, path.sender
    endpoint.deliver = app
    sim.run(until=CHAIN_DEADLINE_S)

    delivered = sum(app.sizes)
    done_s = app.times[-1] if delivered == total else None
    failures = []
    if delivered != total:
        failures.append(
            f"object incomplete by t={CHAIN_DEADLINE_S}s: "
            f"{delivered} of {total} bytes delivered in order"
        )
    if any(n <= 0 for n in app.sizes):
        failures.append("empty or negative in-order delivery")
    if delivered > total:
        failures.append(f"duplicate delivery: {delivered} > {total} bytes")
    first_arrival_bytes = sum(r.nbytes for r in path.recorder.records)
    if first_arrival_bytes != total:
        failures.append(
            f"first arrivals cover {first_arrival_bytes} of {total} bytes"
        )
    owds = path.recorder.owds()
    gaps = np.diff(np.asarray(app.times, dtype=float))
    stall = float(gaps.max()) if gaps.size else 0.0

    digest = Digest()
    digest.add(protocol, seed, total, sim.events_executed)
    digest.add(np.asarray(app.times), np.asarray(app.sizes, dtype=np.int64))
    digest.add(
        owds, np.asarray([r.time for r in path.recorder.records]),
        origin.wire_bytes_sent,
    )
    _link_digest(digest, path.links)

    fct_s = done_s if done_s is not None else CHAIN_DEADLINE_S
    return SimResult(
        attempted=1,
        failed=0 if done_s is not None else 1,
        failures=failures,
        digest=digest.hexdigest(),
        sim={
            "useful_bytes": delivered,
            "flow_s": fct_s,
            "origin_bytes": origin.wire_bytes_sent,
            "events": sim.events_executed,
        },
        owd_ms=owds * 1e3,
        fct_ms=np.asarray([fct_s * 1e3]),
        layers={
            "netsim.link.busy_frac": _link_busy_frac(path.links, fct_s),
            "tcp.rcv_stall_s_max": stall if protocol == "tcp" else 0.0,
        },
    )


def run_chain_leotp(seed: int, size: Size) -> SimResult:
    return _run_chain("leotp", seed, size)


def run_chain_tcp(seed: int, size: Size) -> SimResult:
    return _run_chain("tcp", seed, size)


# ----------------------------------------------------------------------
# Sharded content pool
# ----------------------------------------------------------------------


def _keep_pool(pools: list):
    """``on_init`` hook: keep every FlowPool, with a delivery recorder.

    ``run_sharded`` builds its pools inside the shard workers and drops
    them at finalize; keeping them here lets the benchmark read per-flow
    outcomes afterwards.  The recorder only appends what the pool reports
    on each in-order delivery, so it changes nothing simulated; it costs
    about 0.2 % of the simulation's host time (see README).
    """
    from repro.netsim.trace import FlowRecorder

    def keep(pool) -> None:
        if pool.recorder is None:
            pool.recorder = FlowRecorder(pool.sim, name=pool.name)
        pools.append(pool)

    return keep


def pool_plan(seed: int, size: Size):
    """``content_study``'s sharded cell (gateway placement, LRU), resized."""
    from repro.experiments.content_study import content_plan

    return replace(
        content_plan(1.0, seed),
        n_shards=size.n_shards,
        arrivals_per_shard=size.arrivals_per_shard,
    )


def _ledger_failures(plan, ledger: list[dict]) -> list[str]:
    """The exchange must conserve the global cache budget every epoch."""
    failures = []
    in_force = [plan.shard_cache_bytes] * plan.n_shards  # the equal split
    for row in ledger:
        total = sum(row["allocations"])
        if total != plan.global_cache_bytes:
            failures.append(
                f"epoch {row['epoch']}: allocations sum to {total}, "
                f"not {plan.global_cache_bytes}"
            )
        for shard, (stored, cap) in enumerate(
            zip(row["stored_bytes"], in_force)
        ):
            if stored > cap:
                failures.append(
                    f"epoch {row['epoch']} shard {shard}: {stored} bytes "
                    f"cached above its {cap}-byte allocation"
                )
        in_force = row["allocations"]
    return failures


def run_pool_content(seed: int, size: Size) -> SimResult:
    from repro.shard import run_sharded
    from repro.workload.pool import FlowPool

    plan = pool_plan(seed, size)
    pools: list = []
    undo = on_init(FlowPool, _keep_pool(pools))
    try:
        out = run_sharded(plan, jobs=1)
    finally:
        undo()
    rows = out["rows"]
    total_row = rows[-1]

    failures = []
    if len(pools) != plan.n_shards:
        failures.append(f"{len(pools)} pools built for {plan.n_shards} shards")
    for pool in pools:
        if pool.completed + pool.aborted != pool.arrivals:
            failures.append(
                f"{pool.name}: completed {pool.completed} + aborted "
                f"{pool.aborted} != arrivals {pool.arrivals}"
            )
    if total_row["budget_breaches"] != 0:
        failures.append(f"{total_row['budget_breaches']} budget breaches")
    failures += _ledger_failures(plan, out["ledger"])

    fcts, sizes, owds = [], [], []
    for pool in pools:
        for rec in pool.records:
            if rec.completed:
                fcts.append(rec.fct_s)
                sizes.append(rec.size_bytes)
        owds.extend(pool.recorder.owds())
    arrivals = sum(p.arrivals for p in pools)
    lookup_b = cross_b = 0
    for pool in pools:
        for mid in pool.midnodes:
            lookup_b += mid.cache.stats.lookup_bytes
            cross_b += mid.cache.stats.cross_hit_bytes
    origin_b = sum(p.producer.wire_bytes_sent for p in pools)
    delivered_b = sum(p.delivered_bytes for p in pools)
    horizon = plan.horizon_s

    digest = Digest()
    digest.add(seed, rows, out["ledger"])
    digest.add(out["exchange_payload_bytes"], out["exchange_report_bytes"])
    digest.add(np.asarray(fcts), np.asarray(owds))
    for pool in pools:
        _link_digest(digest, pool.links)

    return SimResult(
        attempted=arrivals,
        failed=sum(p.aborted for p in pools),
        failures=failures,
        digest=digest.hexdigest(),
        sim={
            "useful_bytes": sum(sizes),
            "flow_s": sum(fcts),
            "origin_bytes": origin_b,
            "events": out["events_executed"],
        },
        owd_ms=np.asarray(owds) * 1e3,
        fct_ms=np.asarray(fcts) * 1e3,
        layers={
            "netsim.link.busy_frac": sum(
                _link_busy_frac(p.links, horizon) for p in pools
            ) / len(pools),
            "workload.flows_spawned": arrivals - sum(
                p.admission_rejects for p in pools
            ),
            "workload.admission_rejects": sum(
                p.admission_rejects for p in pools
            ),
            "workload.budget_peak_mib": total_row["budget_peak_MiB"],
            "workload.budget_breaches": total_row["budget_breaches"],
            "content.cross_hit_ratio": cross_b / lookup_b if lookup_b else 0.0,
            "content.origin_load_reduction": (
                max(0.0, 1.0 - origin_b / delivered_b) if delivered_b else 0.0
            ),
            "shard.epochs": len(out["ledger"]),
            "shard.exchange_payload_bytes": out["exchange_payload_bytes"],
            "shard.exchange_report_bytes": out["exchange_report_bytes"],
        },
    )


RUNNERS: dict[str, Callable[[int, Size], SimResult]] = {
    "chain_leotp": run_chain_leotp,
    "chain_tcp": run_chain_tcp,
    "pool_content": run_pool_content,
}
