"""The four benchmark workloads.

Each workload has three phases, driven by ``worker.py``:

``setup(seed)``
    the program's own set-up: imports, seeded input generation or ISA
    assembly, and (paper-sweep) the engine's source digest and cache
    fingerprint.  Timed as ``setup_s``.
``prepare()``
    the benchmark's references (the sequential spell-check oracle), made
    once after set-up and never timed.
``run_round(ledger)``
    one pass over the workload's operation grid.  Only the calls into the
    program are timed; every result is checked right after its call and
    each failed check or raised error counts as one failed operation in
    the ledger instead of aborting the run.

Inputs are a pure function of the seed.  At the default seed every run's
counters are also digested and compared with the digests recorded from
the parent commit in ``expected_digests.json``: a change meant to speed
the simulator up must leave every simulated statistic bit-identical.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import tempfile
import time
import traceback
from pathlib import Path
from typing import Dict, List, Optional, Tuple

DEFAULT_SEED = 1993
SCHEMES = ("NS", "SNP", "SP")
DIGESTS_FILE = Path(__file__).resolve().parent / "expected_digests.json"


def digest(doc) -> str:
    """SHA-256 of a canonical JSON rendering (all mapping keys as text)."""
    def canon(value):
        if isinstance(value, dict):
            return {str(k): canon(v) for k, v in value.items()}
        if isinstance(value, (list, tuple)):
            return [canon(v) for v in value]
        return value
    blob = json.dumps(canon(doc), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def counters_digest(counters) -> str:
    """Digest of ``Counters.snapshot()`` plus the per-switch transfer
    histogram and per-thread switch counts it leaves out."""
    doc = dict(counters.snapshot())
    doc["switch_transfer_hist"] = sorted(
        ("%d,%d" % key, n) for key, n in counters.transfer_histogram().items())
    doc["per_thread_switches"] = dict(counters.per_thread_switches)
    return digest(doc)


class Ledger:
    """Operations attempted and failed, digests seen, first errors."""

    def __init__(self, workload: str, seed: int,
                 check_digests: bool = True) -> None:
        self.attempted = 0
        self.failed = 0
        self.errors: List[str] = []
        self.digests: Dict[str, str] = {}
        self._expected: Optional[Dict[str, str]] = None
        if check_digests and seed == DEFAULT_SEED:
            recorded = json.loads(DIGESTS_FILE.read_text())
            self._expected = recorded["workloads"].get(workload, {})

    def fail(self, label: str, message: str, count: int = 1) -> None:
        self.failed += count
        if len(self.errors) < 20:
            self.errors.append("%s: %s" % (label, message))

    def error(self, label: str, count: int = 1) -> None:
        self.fail(label, traceback.format_exc().strip().splitlines()[-1],
                  count)

    def check_digest(self, label: str, value: str) -> bool:
        """Record ``value``; at the default seed it must match the
        recorded digest.  Returns False (and counts nothing) on a
        mismatch so the caller fails the operation once."""
        self.digests[label] = value
        if self._expected is None:
            return True
        return self._expected.get(label) == value


class Round:
    """What one pass did: simulated steps and the seconds its program
    calls took, plus counts for the per-layer metrics."""

    def __init__(self) -> None:
        self.steps = 0
        self.op_s = 0.0
        self.dynamic_s = 0.0
        self.counts: Dict[str, float] = {}
        self.point_wall_ms: List[float] = []
        #: seconds of each timed program call, by operation label
        self.ops: Dict[str, float] = {}

    def timed(self, label: str, seconds: float, dynamic: bool) -> None:
        """Account one program call; ``dynamic`` calls run simulations
        (the denominator of ``steps_per_s``)."""
        self.ops[label] = seconds
        self.op_s += seconds
        if dynamic:
            self.dynamic_s += seconds

    def add(self, key: str, value: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + value

    def add_counters(self, counters) -> None:
        self.add("windows.spilled", counters.windows_spilled)
        self.add("windows.restored", counters.windows_restored)
        self.add("context_switches", counters.context_switches)


# ---------------------------------------------------------------------------
# spell-switch / spell-calm: plain spell-checker runs on the batched loop


class SpellWorkload:
    """``run_spellchecker`` over a (scheme x windows) grid, no observers."""

    def __init__(self, name: str, concurrency: str, granularity: str,
                 scale: float, windows: Tuple[int, ...]) -> None:
        self.name = name
        self.concurrency = concurrency
        self.granularity = granularity
        self.scale = scale
        self.grid = [(scheme, n) for scheme in SCHEMES for n in windows]
        self.modules = ("repro.apps.spellcheck.corpus",
                        "repro.apps.spellcheck.pipeline",
                        "repro.apps.spellcheck.oracle")

    def setup(self, seed: int) -> None:
        from repro.apps.spellcheck import corpus, pipeline

        self.seed = seed
        self.config = pipeline.SpellConfig.named(
            self.concurrency, self.granularity, scale=self.scale, seed=seed)
        # the same calls build_spellchecker makes, so its per-run lookups
        # hit the generators' caches
        self.corpus = corpus.generate_corpus(seed, self.scale)
        self.dicts = corpus.generate_dictionaries(
            seed, size=max(200, int(round(corpus.DICT_SIZE * self.scale))))

    def prepare(self) -> None:
        from repro.apps.spellcheck.oracle import run_reference

        self.expected, __ = run_reference(self.corpus, *self.dicts[:2],
                                          read_chunk=self.config.read_chunk)

    def run_round(self, ledger: Ledger) -> Round:
        from repro.apps.spellcheck import pipeline

        rnd = Round()
        for scheme, n_windows in self.grid:
            label = "%s/w%d" % (scheme, n_windows)
            ledger.attempted += 1
            try:
                start = time.perf_counter()
                result, output = pipeline.run_spellchecker(
                    n_windows, scheme, self.config, backend="pure")
                elapsed = time.perf_counter() - start
            except Exception:
                ledger.error(label)
                continue
            rnd.timed(label, elapsed, dynamic=True)
            rnd.steps += result.steps
            rnd.add("runtime.steps", result.steps)
            rnd.add_counters(result.counters)
            if output != self.expected:
                ledger.fail(label, "output differs from the oracle")
            elif not ledger.check_digest(label,
                                         counters_digest(result.counters)):
                ledger.fail(label, "counters digest differs from the "
                                   "recorded one")
        return rnd


# ---------------------------------------------------------------------------
# paper-sweep: every table and figure through one engine, cold cache


class PaperSweep:
    """``run_table1``, ``run_table2`` and ``run_fig11``..``run_fig15``
    through one ``Engine(jobs=1)`` with a fresh empty cache directory.

    Figures 12 and 13 request Figure 11's grid again, so a sweep mixes
    executed points, cache writes and cache reads.
    """

    name = "paper-sweep"
    scale = 0.01
    windows = (4, 8, 16)
    targets = ("run_table1", "run_table2", "run_fig11", "run_fig12",
               "run_fig13", "run_fig14", "run_fig15")
    modules = ("repro.apps.spellcheck.corpus",
               "repro.apps.spellcheck.oracle", "repro.experiments.engine",
               "repro.experiments.figures", "repro.experiments.table1",
               "repro.experiments.table2", "repro.runtime.kernel")

    def __init__(self, scratch: Path) -> None:
        self.scratch = scratch
        #: per figure: scheme x granularity x windows
        self.figure_points = 3 * 3 * len(self.windows)

    def setup(self, seed: int) -> None:
        from repro.apps.spellcheck import corpus
        from repro.experiments import engine
        from repro.runtime.kernel import Kernel

        self.seed = seed
        self.corpus = corpus.generate_corpus(seed, self.scale)
        self.dicts = corpus.generate_dictionaries(
            seed, size=max(200, int(round(corpus.DICT_SIZE * self.scale))))
        engine.cache_fingerprint()  # computes the source-tree digest

        # Counting probes (no timing): steps of every kernel run, and the
        # reports the cache wrote and served, for the cache-read check.
        self.steps = 0
        self.puts: Dict[str, dict] = {}
        self.gets: List[Tuple[str, dict]] = []
        kernel_run = Kernel.run
        cache_get = engine.ResultCache.get
        cache_put = engine.ResultCache.put
        probe = self

        def run(kernel, *args, **kwargs):
            result = kernel_run(kernel, *args, **kwargs)
            probe.steps += result.steps
            return result

        def get(cache, key):
            report = cache_get(cache, key)
            if report is not None:
                probe.gets.append((key, report))
            return report

        def put(cache, key, report):
            probe.puts[key] = report
            return cache_put(cache, key, report)

        Kernel.run = run
        engine.ResultCache.get = get
        engine.ResultCache.put = put

    def prepare(self) -> None:
        from repro.apps.spellcheck.oracle import run_reference

        output, __ = run_reference(self.corpus, *self.dicts[:2])
        self.output_bytes = len(output)

    def run_round(self, ledger: Ledger) -> Round:
        from repro.experiments import engine, figures, table1, table2

        rnd = Round()
        self.steps = 0
        self.puts.clear()
        del self.gets[:]
        cache_dir = tempfile.mkdtemp(prefix="cache-", dir=str(self.scratch))
        eng = engine.Engine(jobs=1, cache_dir=cache_dir, keep_going=True,
                            spec_defaults={"seed": self.seed})
        modules = {"run_table1": table1, "run_table2": table2}
        stats = {"total": 0, "hits": 0, "executed": 0, "failures": 0}
        table2_result = None
        try:
            for target in self.targets:
                fn = getattr(modules.get(target, figures), target)
                expected = self._requests_of(target)
                ledger.attempted += expected
                try:
                    start = time.perf_counter()
                    if target == "run_table1":
                        fn(scale=self.scale, engine=eng)
                    elif target == "run_table2":
                        table2_result = fn(scale=self.scale, engine=eng)
                    else:
                        fn(windows=self.windows, scale=self.scale,
                           engine=eng)
                    rnd.timed(target, time.perf_counter() - start,
                              dynamic=True)
                except Exception:
                    ledger.error(target, expected)
                    continue
                last = eng.last_stats
                stats["total"] += last.total
                stats["hits"] += last.hits
                stats["executed"] += last.executed
                stats["failures"] += len(last.failures)
                rnd.point_wall_ms.extend(last.point_wall_ms)
                if last.failures:
                    ledger.fail(target, "%d point(s) failed"
                                % len(last.failures), len(last.failures))
                if last.total != expected:
                    ledger.fail(target, "requested %d points, expected %d"
                                % (last.total, expected))
            self._check(ledger, stats, table2_result)
        finally:
            shutil.rmtree(cache_dir, ignore_errors=True)
        rnd.steps = self.steps
        rnd.add("runtime.steps", self.steps)
        for report in self.puts.values():
            c = report["counters"]
            rnd.add("windows.spilled", c["windows_spilled"])
            rnd.add("windows.restored", c["windows_restored"])
            rnd.add("context_switches", c["context_switches"])
        for key in ("total", "hits", "executed"):
            rnd.add("experiments." + key, stats[key])
        return rnd

    def _requests_of(self, target: str) -> int:
        """Points a target requests (Table 1: six configurations;
        Table 2: three schemes)."""
        return {"run_table1": 6, "run_table2": 3}.get(target,
                                                      self.figure_points)

    def _check(self, ledger: Ledger, stats, table2_result) -> None:
        # executed once each; Figures 12 and 13 are served from cache
        executed = (sum(self._requests_of(t) for t in self.targets)
                    - 2 * self.figure_points)
        if stats["executed"] != executed - stats["failures"]:
            ledger.fail("engine", "executed %d points, expected %d"
                        % (stats["executed"], executed))
        if stats["hits"] != 2 * self.figure_points:
            ledger.fail("engine", "%d cache hits, expected %d"
                        % (stats["hits"], 2 * self.figure_points))
        if table2_result is not None and not table2_result.all_in_range:
            ledger.fail("run_table2", "model cycles outside the paper's "
                                      "ranges")
        for key, report in self.gets:
            if report != self.puts.get(key):
                ledger.fail("cache", "report read from the cache differs "
                                     "from the executed one")
        for report in self.puts.values():
            config = report["config"]
            label = "%s/w%d/%s/%s/%s" % (
                config["scheme"], config["n_windows"],
                config["concurrency"], config["granularity"],
                config["policy"])
            if config["output_bytes"] != self.output_bytes:
                ledger.fail(label, "output length differs from the oracle")
            elif not ledger.check_digest(label, digest(report["counters"])):
                ledger.fail(label, "counters digest differs from the "
                                   "recorded one")


# ---------------------------------------------------------------------------
# isa-verify: committed ISA programs, dynamic and static


def _tak(x: int, y: int, z: int) -> int:
    memo: Dict[Tuple[int, int, int], int] = {}

    def tak(x, y, z):
        key = (x, y, z)
        if key not in memo:
            memo[key] = (z if y >= x else
                         tak(tak(x - 1, y, z), tak(y - 1, z, x),
                             tak(z - 1, x, y)))
        return memo[key]
    return tak(x, y, z)


def _fib(n: int) -> int:
    a, b = 0, 1
    for __ in range(n):
        a, b = b, a + b
    return a


def _set(source: str, old: str, new: str) -> str:
    """Replace one launch constant in a committed program's source."""
    if old not in source:
        raise ValueError("program source no longer contains %r" % old)
    return source.replace(old, new, 1)


class Launch:
    """One program launch: source, threads, memory, windows, and the
    Python reference for its exit values and result cells."""

    def __init__(self, name: str, source: str, threads, n_windows: int,
                 exits: Dict[str, int], pokes=(), cells=()) -> None:
        self.name = name
        self.source = source
        self.threads = tuple(threads)
        self.n_windows = n_windows
        self.exits = exits
        self.pokes = tuple(pokes)
        self.cells = tuple(cells)


class IsaVerify:
    """Committed ISA corpus programs with seed-drawn sizes, run on
    ``Machine`` under NS/SNP/SP and predicted by ``verify_program``.

    Tak is drawn along the shift ``tak(11+k, 5+k, k)``, which keeps its
    call tree (and cost) fixed while the arguments and result change;
    the linear programs draw sizes within +-10 %; the yielding
    two_counters program splits a fixed iteration total over 2-4
    threads.  A round's instruction count therefore varies by well under
    1 % between seeds.
    """

    name = "isa-verify"
    max_steps = 10 ** 8
    modules = ("repro.analysis.verifier", "repro.isa.assembler",
               "repro.isa.machine", "repro.isa.programs")

    def setup(self, seed: int) -> None:
        from repro.analysis.verifier import ThreadSpec
        from repro.isa import assembler, programs

        rng = random.Random(seed)
        main = (ThreadSpec("start", (), "main"),)
        k = rng.randint(0, 20)
        tak = _set(programs.TAK,
                   "mov   10, %o0\n    mov   5, %o1\n    mov   3, %o2",
                   "mov   %d, %%o0\n    mov   %d, %%o1\n    mov   %d, %%o2"
                   % (11 + k, 5 + k, k))
        fib = _set(programs.FIBONACCI, "mov   10, %o0", "mov   17, %o0")
        depth = rng.randint(900, 1100)
        mutual_n = rng.randint(900, 1100)
        mutual = _set(programs.MUTUAL, "mov   9, %o0",
                      "mov   %d, %%o0" % mutual_n)
        n_threads = rng.choice((2, 3, 4))
        iterations = 6000 // n_threads
        counters = _set(programs.TWO_COUNTERS, "cmp   %l1, 8",
                        "cmp   %%l1, %d" % iterations)
        workers = [ThreadSpec("start", (0, 512 + 256 * i), "c%d" % i)
                   for i in range(n_threads)]
        launches = [
            Launch("tak", tak, main, rng.choice((6, 7, 8)),
                   {"main": _tak(11 + k, 5 + k, k)}),
            Launch("fibonacci", fib, main, rng.choice((6, 7, 8)),
                   {"main": _fib(17)}),
            Launch("deep_sum", programs.DEEP_SUM, main,
                   rng.choice((6, 7, 8)),
                   {"main": depth * (depth + 1) // 2}, pokes=((0, depth),)),
            Launch("mutual", mutual, main, rng.choice((6, 7, 8)),
                   {"main": 1 if mutual_n % 2 == 0 else 0}),
            Launch("two_counters", counters, workers, rng.choice((6, 7, 8)),
                   {t.name: iterations for t in workers},
                   cells=[(t.args[1], iterations) for t in workers]),
        ]
        for launch in launches:
            launch.program = assembler.assemble(launch.source)
        self.launches = launches

    def prepare(self) -> None:
        pass

    def run_round(self, ledger: Ledger) -> Round:
        from repro.analysis import verifier
        from repro.isa import machine

        rnd = Round()
        for launch in self.launches:
            for scheme in SCHEMES:
                label = "%s/%s/w%d" % (launch.name, scheme, launch.n_windows)
                ledger.attempted += 1
                try:
                    start = time.perf_counter()
                    m = machine.Machine(launch.program,
                                        n_windows=launch.n_windows,
                                        scheme=scheme, backend="pure")
                    for addr, value in launch.pokes:
                        m.poke(addr, value)
                    threads = [m.add_thread(t.entry, args=t.args,
                                            name=t.name)
                               for t in launch.threads]
                    exits = m.run(max_steps=self.max_steps)
                    elapsed = time.perf_counter() - start
                except Exception:
                    ledger.error(label)
                    dynamic = None
                else:
                    rnd.timed(label, elapsed, dynamic=True)
                    executed = sum(t.instructions for t in threads)
                    rnd.steps += executed
                    rnd.add("isa.instructions", executed)
                    rnd.add_counters(m.counters)
                    dynamic = _comparable(m.counters)
                    if exits != launch.exits or any(
                            m.peek(a) != v for a, v in launch.cells):
                        ledger.fail(label, "exit values %r differ from the "
                                           "reference %r"
                                    % (exits, launch.exits))
                    elif not ledger.check_digest(
                            label, counters_digest(m.counters)):
                        ledger.fail(label, "counters digest differs from "
                                           "the recorded one")
                ledger.attempted += 1
                try:
                    start = time.perf_counter()
                    report = verifier.verify_program(
                        launch.program, name=launch.name,
                        threads=launch.threads, pokes=launch.pokes,
                        n_windows=launch.n_windows, scheme=scheme,
                        predict=True, max_steps=self.max_steps)
                    rnd.timed(label + "/static",
                              time.perf_counter() - start, dynamic=False)
                except Exception:
                    ledger.error(label + "/static")
                    continue
                rnd.add("analysis.launches", 1)
                prediction = report.meta.get("prediction") or {}
                if not report.ok or prediction.get("mode") == "fault":
                    ledger.fail(label + "/static", "verifier reported "
                                "errors: %s" % [f.rule for f in
                                                report.errors])
                elif prediction.get("mode") == "exact":
                    rnd.add("analysis.exact", 1)
                    if (dynamic is not None
                            and (prediction["counters"] != dynamic
                                 or prediction["exit_values"] != exits)):
                        ledger.fail(label + "/static", "exact prediction "
                                    "differs from the dynamic run")
        return rnd


def _comparable(counters) -> Dict[str, object]:
    """Dynamic counters in the verifier's prediction format."""
    return {
        "saves": counters.saves, "restores": counters.restores,
        "overflow_traps": counters.overflow_traps,
        "underflow_traps": counters.underflow_traps,
        "windows_spilled": counters.windows_spilled,
        "windows_restored": counters.windows_restored,
        "context_switches": counters.context_switches,
        "switch_transfer_hist": {
            "%d,%d" % key: n
            for key, n in sorted(counters.switch_transfer_hist.items())},
        "compute_cycles": counters.compute_cycles,
        "call_cycles": counters.call_cycles,
        "trap_cycles": counters.trap_cycles,
        "switch_cycles": counters.switch_cycles,
        "total_cycles": counters.total_cycles,
    }


def make(name: str, scratch: Path):
    """The workload called ``name``; KeyError for an unknown name."""
    return {
        # high concurrency, fine granularity: ~0.5 switches per step and
        # thousands of window traps -- the scheme layer dominates
        "spell-switch": lambda: SpellWorkload(
            "spell-switch", "high", "fine", 0.2, (6, 8)),
        # low concurrency, coarse granularity at 32 windows: 0.03
        # switches per step -- the kernel loop and guest bodies dominate
        "spell-calm": lambda: SpellWorkload(
            "spell-calm", "low", "coarse", 2.0, (32,)),
        "paper-sweep": lambda: PaperSweep(scratch),
        "isa-verify": IsaVerify,
    }[name]()


WORKLOADS = ("spell-switch", "spell-calm", "paper-sweep", "isa-verify")
