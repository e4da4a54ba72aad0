"""One workload in one fresh interpreter (started by ``run.py``).

    python3 e2ebench/worker.py MODE --workload NAME --seed N
                               --t0 MONOTONIC --scratch DIR
                               [--seconds S] [--trace-out PATH]

MODE is one of

``setup``   set up and exit (one ``setup_s`` sample);
``timed``   set up, then run whole rounds until ``--seconds`` have passed,
            starting a ``setup`` interpreter after each round;
``round``   set up and run one untraced round (the traced run's baseline);
``traced``  install the span tracer, set up and run one traced round;
``record``  run one round and report every counter digest.

The last line of standard output is one JSON object.  ``--t0`` is the
parent's ``time.monotonic()`` just before it started this interpreter,
so ``setup_s`` covers interpreter start-up and imports too.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import subprocess
import sys
import time
from pathlib import Path

import tracer as tracing
import workloads


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def setup_sample(args) -> float:
    """``setup_s`` of one fresh interpreter that only sets up."""
    cmd = [sys.executable, __file__, "setup", "--workload", args.workload,
           "--seed", str(args.seed), "--scratch", args.scratch,
           "--t0", repr(time.monotonic())]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, check=True,
                          timeout=60)
    return json.loads(proc.stdout.decode().splitlines()[-1])["setup_s"]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "timed", "round",
                                         "traced", "record"))
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--scratch", required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace-out", default="")
    args = parser.parse_args(argv)

    from repro.runtime.backend import select_backend

    backend = select_backend(None)
    if backend != "pure":
        raise SystemExit("the benchmark pins the pure backend")
    workload = workloads.make(args.workload, Path(args.scratch))
    ledger = workloads.Ledger(args.workload, args.seed,
                              check_digests=args.mode != "record")
    tracer = None
    if args.mode == "traced":
        tracer = tracing.Tracer()
        tracing.instrument(tracer)
        setup = tracer.wrap("bench.setup", workload.setup)
    else:
        setup = workload.setup

    for module in workload.modules:
        importlib.import_module(module)
    start = time.perf_counter()
    setup(args.seed)
    setup_work_s = time.perf_counter() - start
    setup_s = time.monotonic() - args.t0
    out = {"setup_s": setup_s, "setup_work_s": setup_work_s,
           "backend": backend}
    if args.mode == "setup":
        out["peak_rss_mb"] = peak_rss_mb()
        print(json.dumps(out))
        return 0

    workload.prepare()
    rounds = []
    if args.mode == "timed":
        # one more set-up sample after every round, so the samples are
        # spread over the run like the rounds are
        out["setup_samples"] = []
        deadline = time.perf_counter() + args.seconds
        while not rounds or time.perf_counter() < deadline:
            gc.collect()
            rounds.append(workload.run_round(ledger))
            out["setup_samples"].append(setup_sample(args))
    elif tracer is not None:
        gc.collect()
        rounds.append(tracer.wrap("bench.round", workload.run_round)(ledger))
    else:
        gc.collect()
        rounds.append(workload.run_round(ledger))

    out.update({
        "peak_rss_mb": peak_rss_mb(),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "errors": ledger.errors,
        "rounds": [{"steps": r.steps, "op_s": r.op_s,
                    "dynamic_s": r.dynamic_s, "counts": r.counts,
                    "point_wall_ms": r.point_wall_ms, "ops": r.ops}
                   for r in rounds],
    })
    if args.mode == "record":
        out["digests"] = ledger.digests
    if tracer is not None:
        wall_s = setup_work_s + rounds[0].op_s
        out["wall_s"] = wall_s
        out["layers"] = tracing.per_layer(tracer, rounds[0].counts, wall_s)
        tracer.dump(args.trace_out, {
            "workload": args.workload, "seed": args.seed,
            "metrics": out["layers"],
            "closure": tracing.residual(tracer, wall_s)})
    elif rounds:
        out["wall_s"] = setup_work_s + rounds[0].op_s
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
