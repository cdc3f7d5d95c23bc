"""Run one benchmark instance in this (fresh) interpreter.

Started by ``run.py`` with ``src`` on ``PYTHONPATH``.  An instance runs
its workload's batch of simulations back to back (or only the first
``--sims``), checking before each one that no process-global state
leaked from the previous one.  It prints one JSON object on its last
stdout line: the pooled results and output-check failures, a digest of
each simulation and one of them all, host timings, and — with
``--trace 1`` — the per-layer figures of the traced run, whose spans it
also writes to ``perfbench/spans/<workload>-<index>.npz``.

``--spawned-at`` is the parent's ``CLOCK_MONOTONIC`` reading just before
it started this process, so ``setup_s`` includes interpreter start-up
and importing the program.  Each simulation is also timed on its own,
from building it to checking its outputs.
"""

import time

_T_START = time.clock_gettime(time.CLOCK_MONOTONIC)

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402

import numpy as np  # noqa: E402

SPANS_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "spans")


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


class RunClock:
    """Times the simulation phase: every ``Simulator.run`` call, summed,
    and the first one's start (the end of set-up)."""

    def __init__(self) -> None:
        self.first_start = None
        self.sim_s = 0.0
        self._undo = None

    def __enter__(self) -> "RunClock":
        from repro.simcore.simulator import Simulator
        from tracing import patch_member

        clock = self

        def make(original):
            def run(sim, *args, **kwargs):
                start = _now()
                if clock.first_start is None:
                    clock.first_start = start
                try:
                    return original(sim, *args, **kwargs)
                finally:
                    clock.sim_s += _now() - start

            return run

        self._undo = patch_member(Simulator, "run", make)
        return self

    def __exit__(self, *exc) -> None:
        self._undo()


def check_clean_state() -> list[str]:
    """Process-global state that would leak into the next simulation."""
    from repro.core.wire import packet_pool_stats
    from repro.obs.metrics import METRICS
    from repro.obs.tracer import TRACER
    from repro.tcp.cc import CC_REGISTRY

    problems = []
    pools = packet_pool_stats()
    if not pools["enabled"]:
        problems.append("packet freelist pooling is disabled")
    if pools["interest_free"] or pools["data_free"]:
        problems.append("packet freelists are not empty")
    if TRACER.enabled or TRACER.records:
        problems.append("TRACER is on or holds records")
    if METRICS.enabled or METRICS.samples:
        problems.append("METRICS is on or holds samples")
    foreign = sorted(
        name for name, factory in CC_REGISTRY.items()
        if not factory.__module__.startswith("repro.tcp.cc")
    )
    if foreign:
        problems.append(f"CC registry has non-default entries {foreign}")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--index", type=int, required=True)
    parser.add_argument("--size", default="full")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spawned-at", type=float, required=True)
    parser.add_argument("--sims", type=int, default=None)
    args = parser.parse_args(argv)

    from metrics import combine_layers, traced_instance
    from tracing import SpanTracer
    from workloads import (
        PLANS, RUNNERS, SIZES, Digest, encode_array, load_program, sim_seed,
    )

    # Importing the program is set-up: it happens before the first event.
    load_program()
    from repro.core.wire import clear_packet_pools

    tracer = None
    if args.trace:
        tracer = SpanTracer()
        tracer.install()
    runner, size = RUNNERS[args.workload], SIZES[args.size]
    n_sims = PLANS[args.workload][1]
    if args.sims is not None:
        n_sims = min(args.sims, n_sims)
    results, sim_hosts = [], []
    with RunClock() as clock:
        for j in range(n_sims):
            if j:
                # Released packets wait in freelists for reuse; start
                # every later simulation from empty ones, as the first
                # one starts in this fresh interpreter.  Other process
                # state (e.g. the packet uid counter) carries over, the
                # same way in every run of this instance.
                clear_packet_pools()
            problems = check_clean_state()
            if problems:
                print(f"unclean process state: {problems}", file=sys.stderr)
                return 2
            began, sim_before = _now(), clock.sim_s
            results.append(runner(sim_seed(args.seed, args.index, j), size))
            sim_hosts.append({
                "wall_s": _now() - began,
                "sim_s": clock.sim_s - sim_before,
                "events": results[-1].sim["events"],
            })
    t_end = _now()

    digest = Digest()
    digest.add([r.digest for r in results])
    totals = {
        key: sum(r.sim[key] for r in results) for key in results[0].sim
    }
    out = {
        "index": args.index,
        "traced": bool(args.trace),
        "attempted": sum(r.attempted for r in results),
        "failed": sum(r.failed for r in results),
        "failures": [f for r in results for f in r.failures],
        "digest": digest.hexdigest(),
        "sim_digests": [r.digest for r in results],
        "sim": totals,
        "owd_ms": encode_array(np.concatenate([r.owd_ms for r in results])),
        "fct_ms": encode_array(np.concatenate([r.fct_ms for r in results])),
        "host": {
            "setup_s": clock.first_start - args.spawned_at,
            "inproc_wall_s": t_end - _T_START,
            "peak_rss_mib": resource.getrusage(
                resource.RUSAGE_SELF
            ).ru_maxrss / 1024,
            "sims": sim_hosts,
        },
    }
    if tracer is not None:
        out["trace"] = traced_instance(
            tracer, combine_layers([r.layers for r in results], "sims"),
            t_end - _T_START,
        )
        out["spans"] = tracer.span_count()
        os.makedirs(SPANS_DIR, exist_ok=True)
        out["spans_file"] = os.path.join(
            SPANS_DIR, f"{args.workload}-{args.index}.npz"
        )
        tracer.write(out["spans_file"])
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
