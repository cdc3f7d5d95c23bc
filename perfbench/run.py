#!/usr/bin/env python3
"""The repository benchmark (see ``perfbench/README.md``).

    python3 perfbench/run.py --workload chain_leotp --seed 1 --seconds 20 --trace 0

Runs the workload's instances, each in a fresh interpreter, one at a
time, and repeats the set while another fits in ``--seconds``.  Every
instance checks its own outputs.  Each simulation is run
twice, in two interpreters, and must produce the same digest of
simulated results both times: ``--trace 1`` runs the first instances
untraced and then traced; ``--trace 0`` reruns the first simulation
of instance 0 after the set (a *twin*, not measured).  The last stdout
line is one JSON object: ``correct``, ``attempted``, ``failed`` and the
end-to-end metrics (``--trace 0``) or the per-layer metrics
(``--trace 1``).  The line before it records how the numbers were
made, with each instance's digest so that separate runs at one seed
can be compared.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

from metrics import end_to_end, per_layer, render  # noqa: E402
from workloads import PLANS, WORKLOADS  # noqa: E402

#: Whole-run budget: the contract allows 180 s per run.
TIME_LIMIT_S = 170.0

#: Instances a traced run covers, each untraced and then traced: tracing
#: doubles an instance's wall time, and per-layer figures are
#: per-instance means that two instances already give.
TRACED_INSTANCES = 2

#: ``LEOTP_*`` flags tolerated at these values only; any other flag (or
#: value) changes what is measured, so the benchmark refuses to run.
NEUTRAL_FLAGS = {"LEOTP_PACKET_POOL": "1", "LEOTP_SHARD_JOBS": "1"}


class BenchError(RuntimeError):
    """The benchmark could not produce a result."""


def _now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def leotp_flags(environ=os.environ) -> dict[str, str]:
    return {k: v for k, v in sorted(environ.items()) if k.startswith("LEOTP_")}


def refused_flags(flags: dict[str, str]) -> list[str]:
    return [
        f"{k}={v}" for k, v in flags.items() if NEUTRAL_FLAGS.get(k) != v
    ]


def manifest(workload: str, seed: int, trace: int) -> dict:
    """What produced the numbers: code, interpreter, machine, inputs."""
    rev = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            rev = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=10, check=True,
            ).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            rev = None
    src_hash = hashlib.sha256()
    for dirpath, dirnames, filenames in os.walk(SRC):
        dirnames.sort()
        for name in sorted(filenames):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                src_hash.update(os.path.relpath(path, SRC).encode())
                with open(path, "rb") as fh:
                    src_hash.update(fh.read())
    return {
        "workload": workload,
        "seed": seed,
        "trace": trace,
        "git_rev": rev,
        "src_sha256": src_hash.hexdigest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "leotp_flags": leotp_flags(),
    }


def run_instance(
    workload: str, seed: int, index: int, trace: int, size: str,
    deadline: float, sims: int | None = None,
) -> dict:
    """One instance in a fresh interpreter; its parsed JSON output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p
    )
    cmd = [
        sys.executable, os.path.join(HERE, "instance.py"),
        "--workload", workload, "--seed", str(seed), "--index", str(index),
        "--size", size, "--trace", str(trace),
    ]
    if sims is not None:
        cmd += ["--sims", str(sims)]
    spawned_at = _now()
    try:
        proc = subprocess.run(
            cmd + ["--spawned-at", repr(spawned_at)], env=env,
            capture_output=True, text=True,
            timeout=max(deadline - spawned_at, 1.0),
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(
            f"{workload} instance {index} (trace={trace}) overran the "
            "benchmark's time limit"
        ) from exc
    if proc.returncode != 0:
        raise BenchError(
            f"{workload} instance {index} (trace={trace}) exited "
            f"{proc.returncode}:\n{proc.stderr[-4000:]}"
        )
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(
    workload: str, seed: int, seconds: float, trace: int,
    size: str = "full",
) -> dict:
    """Run the workload; return the benchmark's result object.

    The set of instances is fixed by the workload's plan, so the
    simulated figures depend on the seed alone.  The set is run again
    while another one fits in ``seconds``; plans are sized so that one
    set takes about 30 s on the reference host, so at ``--seconds 30``
    there is never a second set.
    """
    if workload not in PLANS:
        raise BenchError(f"unknown workload {workload!r}; choose {WORKLOADS}")
    if not os.path.isdir(os.path.join(SRC, "repro")):
        raise BenchError(f"no program to measure: {SRC}/repro is missing")
    refused = refused_flags(leotp_flags())
    if refused:
        raise BenchError(f"refusing to run with {refused}: they change "
                         "what is measured")
    began = _now()
    deadline = began + TIME_LIMIT_S
    outputs: list[dict] = []
    sets = 0
    n_instances = PLANS[workload][0]
    if trace:
        n_instances = min(n_instances, TRACED_INSTANCES)
    while True:
        for index in range(n_instances):
            for mode in (0, 1) if trace else (0,):
                outputs.append(
                    run_instance(workload, seed, index, mode, size, deadline)
                )
        sets += 1
        per_set = (_now() - began) / sets
        if _now() + per_set > min(began + seconds, deadline):
            break
    twins = [] if trace else [
        run_instance(workload, seed, 0, 0, size, deadline, sims=1)
    ]

    failures: list[str] = []
    attempted = failed = 0
    digests: dict[tuple[int, int], set[str]] = {}
    for out in outputs + twins:
        for j, digest in enumerate(out["sim_digests"]):
            digests.setdefault((out["index"], j), set()).add(digest)
    for out in outputs:
        attempted += out["attempted"]
        if out["failures"]:
            failed += out["attempted"]
            failures += [f"instance {out['index']}: {f}"
                         for f in out["failures"]]
        else:
            failed += out["failed"]
    for (index, j), seen in sorted(digests.items()):
        if len(seen) > 1:
            failures.append(
                f"instance {index} simulation {j}: runs at one seed "
                f"disagree ({len(seen)} different digests)"
            )
            failed += sum(o["attempted"] for o in outputs
                          if o["index"] == index)
    failed = min(failed, attempted)

    untraced = [o for o in outputs if not o["traced"]]
    if trace:
        traced = [o for o in outputs if o["traced"]]
        values = per_layer(
            traced, [o["host"]["inproc_wall_s"] for o in untraced]
        )
        metrics = render(values, "per_layer")
    else:
        metrics = render(end_to_end(untraced), "end_to_end")
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "_failures": failures,
        "_instances": len(outputs) + len(twins),
        "_sets": sets,
        "_digests": {
            str(out["index"]): out["digest"] for out in outputs
            if not out["traced"]
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        info = manifest(args.workload, args.seed, args.trace)
        result = measure(args.workload, args.seed, args.seconds, args.trace)
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info["instances_run"] = result.pop("_instances")
    info["sets"] = result.pop("_sets")
    info["digests"] = result.pop("_digests")
    for failure in result.pop("_failures"):
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print(json.dumps({"manifest": info}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
