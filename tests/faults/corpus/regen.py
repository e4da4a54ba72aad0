"""Regenerate the committed minimization seed corpus.

Each case runs a deliberately *over-specified* fault plan (4-5 specs,
mostly chaff) against a workload until it crashes, and commits the
resulting bundle.  The corpus is the acceptance fixture for the
delta-debugging minimizer: ``tests/faults/test_minimize_corpus.py``
asserts every bundle replays bit-for-bit and shrinks to <=2 specs.

Bundles are deterministic (no timestamps, content-addressed names),
so rerunning this script after a behaviour-preserving change
reproduces the identical files::

    PYTHONPATH=src python tests/faults/corpus/regen.py
"""

import pathlib
import sys

from repro.errors import ReproError
from repro.faults import FaultInjector, FaultPlan, run_workload

CORPUS_DIR = pathlib.Path(__file__).resolve().parent

#: (bundle config, over-specified plan text, plan seed) per case; the
#: ``core`` keys are the old recorded field, kept so the committed
#: bundles keep exercising it (nothing reads it)
CASES = [
    # window-integrity corruption buried in 5 specs of chaff
    ({"workload": "spellcheck", "scheme": "SP", "n_windows": 6,
      "m": 16, "n": 4, "scale": 0.05, "seed": 1993,
      "verify_registers": True, "audit": False, "watchdog": 0,
      "core": "batched"},
     "store_delay@1,sched@2,retval@4,store_delay@6,sched@9", 77),
    # return-value corruption in a fork/join tree, generator core
    ({"workload": "synthetic-fork-join", "scheme": "SNP",
      "n_windows": 6, "n_children": 3, "items": 12,
      "flush_hint": True, "verify_registers": True, "audit": True,
      "watchdog": 0, "core": "generator"},
     "sched@1,store_delay@2,retval@2,store_delay@7", 11),
    # CWP geometry violation under deep synthetic call chains
    ({"workload": "synthetic-call-depth", "scheme": "NS",
      "n_windows": 4, "n_workers": 3, "iterations": 4, "depth": 3,
      "work": 5, "verify_registers": True, "audit": True,
      "watchdog": 0, "core": "batched"},
     "store_delay@1,sched@2,cwp@3,wim@9", 23),
    # watchdog-detected livelock with survivable chaff faults
    ({"workload": "synthetic-yield-storm", "scheme": "SP",
      "n_windows": 4, "n_spinners": 2, "spins": 300,
      "verify_registers": True, "audit": False, "watchdog": 80,
      "core": "batched"},
     "sched@2,store_delay@1", 7),
]


def regen(out_dir=CORPUS_DIR):
    paths = []
    for config, plan_text, seed in CASES:
        injector = FaultInjector(FaultPlan.parse(plan_text, seed=seed))
        try:
            run_workload(dict(config), faults=injector,
                         crash_dir=out_dir)
        except ReproError as exc:
            if exc.bundle_path is None:
                raise SystemExit("case %r crashed without a bundle"
                                 % config["workload"])
            print("%-24s %-22s -> %s"
                  % (config["workload"], plan_text,
                     pathlib.Path(exc.bundle_path).name))
            paths.append(pathlib.Path(exc.bundle_path))
        else:
            raise SystemExit("case %r did not crash; corpus needs "
                             "failing bundles" % config["workload"])
    return paths


if __name__ == "__main__":
    sys.exit(0 if regen() else 1)
