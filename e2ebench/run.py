"""End-to-end and per-layer benchmark of the simulator.

    python3 e2ebench/run.py --workload NAME [--seed N] [--seconds S]
                            [--trace 0|1]
    python3 e2ebench/run.py --record-digests

Run from the repository root.  Each call builds nothing (the simulator
is pure Python under ``src/``) and runs every interpreter it needs as a
child process with a clean environment: the ``REPRO_*`` variables are
removed and the pure backend is pinned, so ambient settings and caches
cannot leak into a measurement.

``--trace 0`` (the default) prints the end-to-end metrics:

* ``setup_s``     time from interpreter start to the end of the
                  workload's set-up, median over the timed interpreter
                  and one fresh interpreter started after each round;
* ``steps_per_s`` simulated steps (kernel steps; one instruction on the
                  ISA machine) per host second of the runs, median over
                  the rounds of one timed interpreter;
* ``sweep_s``     host seconds of one round over the workload's whole
                  grid, median over the rounds;
* ``peak_rss_mb`` peak resident set of the timed interpreter.

``--trace 1`` runs one untraced and one traced round, each in a fresh
interpreter, and prints the per-layer metrics (see README.md); the full
trace lands in ``.e2ebench/trace-<workload>-<seed>.json``.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; the line before it
records the backend, Python version, core count and any errors.
``failed / attempted`` is the workload's error rate: every run that
raised or failed a correctness check counts once.

``--record-digests`` re-records ``expected_digests.json`` (counter
digests at the default seed).  Do it only in a change that is meant to
alter simulated statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".e2ebench"
WORKLOADS = ("spell-switch", "spell-calm", "paper-sweep", "isa-verify")
DEFAULT_SEED = 1993
#: a whole run must end within this many seconds
RUN_BUDGET_S = 170.0

class ChildError(RuntimeError):
    """A worker interpreter crashed, timed out or printed no result."""


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("REPRO_", "PYTHON"))}
    # bytecode is cached as usual, so set-up times match a normal start
    env.update({"PYTHONPATH": str(SRC), "PYTHONHASHSEED": "0",
                "REPRO_BACKEND": "pure"})
    return env


def run_child(mode: str, workload: str, seed: int, deadline: float,
              **options) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), mode,
           "--workload", workload, "--seed", str(seed),
           "--scratch", str(WORK)]
    for key, value in options.items():
        cmd += ["--" + key.replace("_", "-"), str(value)]
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise ChildError("out of time before %s %s" % (workload, mode))
    cmd += ["--t0", repr(time.monotonic())]
    try:
        proc = subprocess.run(cmd, cwd=str(ROOT), env=child_env(),
                              stdout=subprocess.PIPE, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise ChildError("%s %s timed out" % (workload, mode)) from exc
    lines = proc.stdout.decode("utf-8", "replace").strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildError("%s %s exited with %d" % (workload, mode,
                                                   proc.returncode))
    return json.loads(lines[-1])


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in 0..100)."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def end_to_end(workload: str, seed: int, seconds: float, deadline: float):
    timed = run_child("timed", workload, seed, deadline, seconds=seconds)
    setups = [timed["setup_s"]] + timed["setup_samples"]
    rounds = timed["rounds"]
    metrics = {
        "setup_s": statistics.median(setups),
        "steps_per_s": statistics.median(
            r["steps"] / r["dynamic_s"] for r in rounds),
        "sweep_s": statistics.median(r["op_s"] for r in rounds),
        "peak_rss_mb": timed["peak_rss_mb"],
    }
    info = {"rounds": [{"steps": r["steps"], "dynamic_s": r["dynamic_s"],
                        "op_s": r["op_s"], "ops": r["ops"]} for r in rounds],
            "setup_samples_s": setups}
    return metrics, timed, info


def per_layer(workload: str, seed: int, deadline: float):
    plain = run_child("round", workload, seed, deadline)
    trace_path = WORK / ("trace-%s-%d.json" % (workload, seed))
    traced = run_child("traced", workload, seed, deadline,
                       trace_out=trace_path)
    metrics = dict(traced["layers"])
    walls = [ms / 1000.0 for ms in plain["rounds"][0]["point_wall_ms"]]
    metrics.update({
        "experiments.point_s_p50": percentile(walls, 50) if walls else 0.0,
        "experiments.point_s_p80": percentile(walls, 80) if walls else 0.0,
        "experiments.point_samples": len(walls),
        "trace.overhead_s": traced["wall_s"] - plain["wall_s"],
    })
    ledger = {"backend": traced["backend"],
              "attempted": plain["attempted"] + traced["attempted"],
              "failed": plain["failed"] + traced["failed"],
              "errors": plain["errors"] + traced["errors"]}
    info = {"trace": str(trace_path.relative_to(ROOT)),
            "untraced_wall_s": plain["wall_s"],
            "traced_wall_s": traced["wall_s"]}
    return metrics, ledger, info


def record_digests(deadline: float) -> int:
    doc = {"seed": DEFAULT_SEED,
           "note": "counter digests at the default seed; every later "
                   "run at this seed must reproduce them",
           "workloads": {}}
    for workload in WORKLOADS:
        out = run_child("record", workload, DEFAULT_SEED, deadline)
        if out["failed"]:
            print("%s: %s" % (workload, out["errors"]), file=sys.stderr)
            return 1
        doc["workloads"][workload] = dict(sorted(out["digests"].items()))
    (HERE / "expected_digests.json").write_text(
        json.dumps(doc, indent=1, sort_keys=True) + "\n")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-digests", action="store_true")
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print("error: no simulator sources at %s" % SRC, file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_BUDGET_S
    WORK.mkdir(exist_ok=True)
    if args.record_digests:
        return record_digests(deadline)
    if args.workload is None:
        parser.error("--workload is required")

    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    units = {m["name"]: m["unit"] for m in
             declared["per_layer" if args.trace else "end_to_end"]}
    try:
        if args.trace:
            metrics, ledger, info = per_layer(
                args.workload, args.seed, deadline)
        else:
            metrics, ledger, info = end_to_end(
                args.workload, args.seed, args.seconds, deadline)
    except ChildError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 1
    finally:
        for leftover in WORK.glob("cache-*"):
            shutil.rmtree(leftover, ignore_errors=True)

    if set(metrics) != set(units):
        print("error: metrics %s differ from BENCHMARK.json"
              % sorted(set(metrics) ^ set(units)), file=sys.stderr)
        return 1
    info.update({"workload": args.workload, "seed": args.seed,
                 "backend": ledger["backend"],
                 "python": platform.python_version(),
                 "nproc": os.cpu_count(), "errors": ledger["errors"]})
    print(json.dumps({"e2ebench": info}))
    attempted, failed = ledger["attempted"], ledger["failed"]
    print(json.dumps({
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
