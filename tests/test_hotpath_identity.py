"""Bit-identity fence for the per-packet hot paths.

Three short seeded scenarios exercise every layer a packet crosses:

* ``leotp_chain`` — one LEOTP object over a lossy 4-hop chain whose
  Midnode caches are small enough to evict;
* ``tcp_chain`` — the same object and chain with end-to-end TCP-BBR;
* ``content_pool`` — a ``content_study``-shaped sharded Zipf pool,
  one shard blacked out mid-run, cache budget tight enough to evict.

Each yields a SHA-256 over what it simulated: in-order delivery times
and sizes, link counters, protocol counters and ``events_executed``.
The expected digests are constants: a rewrite of a hot path that moves
any simulated value by one bit, or schedules one event more or fewer,
fails here and names the scenario.  A deliberate behaviour change must
update the constant and say why.
"""

from __future__ import annotations

import hashlib
import json
import struct
from dataclasses import replace

import pytest

from repro.core import LeotpConfig
from repro.experiments.common import PathSpec, build_path
from repro.netsim.topology import uniform_chain_specs
from repro.simcore import RngRegistry, Simulator

EXPECTED = {
    "leotp_chain":
        "f6aaf56a79cb7a61f7d2f5964a207ee113e003c6dcecf702416b7216f679c638",
    "tcp_chain":
        "bb2cd6077a77000e13a00eb245a6ffc0b88b14d0635d4c80a85aedee4dd88ac0",
    "content_pool":
        "19e32fd8c36dbf0dc693a7c6920f83bff0a78d130d26f7b6572c990096183be5",
}

CHAIN_BYTES = 1_500_000


class _Digest:
    """SHA-256 over values; floats by their exact bit pattern."""

    def __init__(self) -> None:
        self._h = hashlib.sha256()

    def add(self, *values) -> None:
        for v in values:
            if isinstance(v, float):
                self._h.update(b"f" + struct.pack("<d", v))
            elif isinstance(v, (list, tuple)):
                self._h.update(b"[")
                self.add(*v)
                self._h.update(b"]")
            else:
                self._h.update(b"j" + json.dumps(v, sort_keys=True).encode())

    def hexdigest(self) -> str:
        return self._h.hexdigest()


def _add_links(digest: _Digest, duplex_links) -> None:
    for d in duplex_links:
        for link in (d.ab, d.ba):
            s = link.stats
            digest.add(
                s.packets_offered, s.packets_delivered,
                s.packets_dropped_queue, s.packets_dropped_loss,
                s.bytes_delivered, s.busy_time_s, s.max_queue_bytes,
            )


def _run_chain(protocol: str) -> str:
    sim = Simulator()
    path = build_path(sim, RngRegistry(7), PathSpec(
        protocol=protocol,
        hops=tuple(uniform_chain_specs(4, rate_bps=20e6, delay_s=0.010,
                                       plr=0.01)),
        cc_name="bbr",
        config=LeotpConfig(cache_capacity_bytes=96 << 10),
        total_bytes=CHAIN_BYTES,
    ))
    times: list[float] = []
    sizes: list[int] = []

    def deliver(nbytes: int, origin_ts: float) -> None:
        times.append(sim.now)
        sizes.append(nbytes)

    endpoint = path.consumer if protocol == "leotp" else path.receiver
    endpoint.deliver = deliver
    sim.run(until=60.0)
    assert sum(sizes) == CHAIN_BYTES, f"{protocol} transfer incomplete"

    digest = _Digest()
    digest.add(protocol, sim.events_executed, sim.now, times, sizes)
    digest.add([(r.time, r.nbytes, r.owd_s, r.retransmitted)
                for r in path.recorder.records])
    _add_links(digest, path.links)
    if protocol == "leotp":
        digest.add(path.producer.wire_bytes_sent)
        c = path.consumer
        digest.add(
            c.interests_sent, c.retransmission_interests, c.tr_expirations,
            c.vph_received, c.bytes_received, c.duplicate_bytes_received,
            c.max_outstanding_bytes, c.max_interest_retries, c.completed_at,
        )
        for mid in path.midnodes:
            digest.add(sorted(vars(mid.stats).items()))
            digest.add(sorted(vars(mid.cache.stats).items()))
            digest.add(mid.cache.stored_bytes)
    else:
        digest.add(path.sender.wire_bytes_sent)
    return digest.hexdigest()


def _run_pool(monkeypatch) -> str:
    from repro.experiments.content_study import content_plan
    from repro.netsim.trace import FlowRecorder
    from repro.shard import run_sharded
    from repro.workload.pool import FlowPool

    pools: list = []
    init = FlowPool.__init__

    def keep(pool, *args, **kwargs):
        init(pool, *args, **kwargs)
        if pool.recorder is None:
            pool.recorder = FlowRecorder(pool.sim, name=pool.name)
        pools.append(pool)

    monkeypatch.setattr(FlowPool, "__init__", keep)
    plan = replace(
        content_plan(1.0, 5), n_shards=4, arrivals_per_shard=20,
        memory_ceiling_bytes=384 << 10,
    )
    out = run_sharded(plan, jobs=1)
    assert len(pools) == plan.n_shards
    assert out["rows"][-1]["faulted"] >= 1, "no shard was blacked out"
    assert out["rows"][-1]["cache_evictions"] > 0, "no cache eviction"

    digest = _Digest()
    digest.add(out["rows"], out["ledger"], out["events_executed"])
    digest.add(out["exchange_payload_bytes"], out["exchange_report_bytes"])
    for pool in pools:
        digest.add([(r.time, r.nbytes, r.owd_s) for r in pool.recorder.records])
        digest.add([(r.completed, r.size_bytes, r.fct_s) for r in pool.records])
        _add_links(digest, pool.links)
    return digest.hexdigest()


@pytest.mark.parametrize("protocol", ["leotp", "tcp"])
def test_chain_identity(protocol):
    scenario = f"{protocol}_chain"
    got = _run_chain(protocol)
    assert got == EXPECTED[scenario], (
        f"scenario {scenario!r}: simulated output changed (digest {got})"
    )


def test_content_pool_identity(monkeypatch):
    got = _run_pool(monkeypatch)
    assert got == EXPECTED["content_pool"], (
        f"scenario 'content_pool': simulated output changed (digest {got})"
    )
