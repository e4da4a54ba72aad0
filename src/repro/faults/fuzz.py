"""The adversarial workload fuzzer: seeded random fault plans x random
synthetic workloads x NS/SNP/SP.

Each trial derives its own RNG from ``(seed, trial index)`` — the
whole campaign is a pure function of the seed, so a CI failure names
the exact trial to rerun.  Every trial runs with the full detection
battery armed (register verification, continuous invariant audit,
watchdog) and a crash directory, and must end in one of two ways:

* **survived** — the run completes; the kernel's invariants held, or
  the perturbation was harmless; or
* **detected** — a :class:`~repro.errors.ReproError` escaped *and*
  the resulting crash bundle auto-minimizes into a verified,
  bit-for-bit-replayable artifact (:mod:`repro.faults.minimize`).

Anything else — a non-``ReproError`` exception, or a bundle that
fails to minimize/replay — is a real robustness bug and fails the
campaign.  That is the "survive-or-minimize" contract the CI fuzz
smoke enforces on every PR and the nightly job enforces at scale.
"""

from __future__ import annotations

import random
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, List, Optional, Sequence

from repro.errors import ReproError
from repro.faults.inject import FaultInjector
from repro.faults.minimize import MinimizeResult, minimize_bundle
from repro.faults.plan import FAULT_KINDS, FaultPlan, FaultSpec
from repro.faults.workloads import WORKLOADS, run_workload

DEFAULT_TRIALS = 25
DEFAULT_SEED = 1993
#: per-trial step budget, recorded in the config so the bundle is
#: self-contained (a budget crash replays as a budget crash)
DEFAULT_TRIAL_BUDGET = 300_000
DEFAULT_SCHEMES = ("NS", "SNP", "SP")
#: trigger horizon for random fault firing points
FUZZ_HORIZON = 30


@dataclass
class FuzzTrial:
    """One trial's draw and outcome."""

    index: int
    workload: str
    scheme: str
    n_windows: int
    plan: FaultPlan
    config: dict = field(default_factory=dict)
    outcome: str = "survived"  # survived | detected | rejected | unexpected
    error_type: Optional[str] = None
    bundle: Optional[Path] = None
    minimized: Optional[MinimizeResult] = None
    detail: str = ""

    def describe(self) -> str:
        text = ("trial %02d %-22s %-3s w%d faults=%s -> %s"
                % (self.index, self.workload, self.scheme,
                   self.n_windows,
                   ",".join(s.describe() for s in self.plan.specs),
                   self.outcome))
        if self.error_type:
            text += " %s" % self.error_type
        if self.minimized is not None:
            text += (" -> minimized %d spec(s) (%s)"
                     % (self.minimized.final_specs,
                        self.minimized.path.name))
        if self.outcome in ("unexpected", "rejected"):
            text += " %s" % self.detail
        return text


@dataclass
class FuzzReport:
    """Campaign outcome: the per-trial record plus the pass/fail gate."""

    seed: int
    trials: List[FuzzTrial] = field(default_factory=list)

    @property
    def survived(self) -> int:
        return sum(t.outcome == "survived" for t in self.trials)

    @property
    def detected(self) -> int:
        return sum(t.outcome == "detected" for t in self.trials)

    @property
    def minimized(self) -> int:
        return sum(t.minimized is not None for t in self.trials)

    @property
    def rejected(self) -> int:
        """Trials the static pre-validation refused to run."""
        return sum(t.outcome == "rejected" for t in self.trials)

    @property
    def unexpected(self) -> int:
        return sum(t.outcome == "unexpected" for t in self.trials)

    @property
    def ok(self) -> bool:
        """The survive-or-minimize gate: no unexpected outcomes, and
        every detected crash produced a verified minimized bundle."""
        return self.unexpected == 0 and all(
            t.minimized is not None and t.minimized.verified
            for t in self.trials if t.outcome == "detected")

    def summary(self) -> str:
        return ("fuzz: %d trials — %d survived, %d detected "
                "(%d minimized), %d rejected, %d unexpected (seed=%s)"
                % (len(self.trials), self.survived, self.detected,
                   self.minimized, self.rejected, self.unexpected,
                   self.seed))


def draw_trial(seed: int, index: int,
               workloads: Sequence[str],
               schemes: Sequence[str] = DEFAULT_SCHEMES,
               trial_budget: int = DEFAULT_TRIAL_BUDGET) -> FuzzTrial:
    """The deterministic draw for trial ``index`` of campaign ``seed``:
    workload + params, scheme, window count, and a random 1–3 spec
    fault plan."""
    rng = random.Random("repro-fuzz:%s:%d" % (seed, index))
    name = rng.choice(sorted(workloads))
    workload = WORKLOADS[name]
    config = {
        "workload": name,
        "scheme": rng.choice(tuple(schemes)),
        "n_windows": rng.choice((4, 6, 8)),
        "verify_registers": True,
        "audit": True,
        "watchdog": 50_000,
        "max_steps": trial_budget,
    }
    if workload.fuzz_draw is not None:
        config.update(workload.fuzz_draw(rng))
    specs = tuple(
        FaultSpec(kind=rng.choice(FAULT_KINDS),
                  at=rng.randint(1, FUZZ_HORIZON))
        for __ in range(rng.randint(1, 3)))
    plan = FaultPlan(seed=rng.randrange(1, 2 ** 31), specs=specs)
    return FuzzTrial(index=index, workload=name,
                     scheme=config["scheme"],
                     n_windows=config["n_windows"],
                     plan=plan, config=config)


def _prevalidate(trial: FuzzTrial) -> bool:
    """Static topology check of the drawn workload plan.

    Records the verdict in the trial's config (so any later crash
    bundle carries it; ``run_workload`` ignores unknown keys).  A plan
    the verifier proves deadlocked — a known-bad plan — is *rejected*
    without burning the trial's step budget; returns False for those.
    """
    from repro.analysis.topology import analyze_workload_config

    static = analyze_workload_config(trial.config)
    errors = static.errors
    if errors:
        trial.config["static_verdict"] = "rejected"
        trial.outcome = "rejected"
        trial.detail = "; ".join(f.describe() for f in errors)
        return False
    trial.config["static_verdict"] = "clean"
    return True


def run_fuzz(trials: int = DEFAULT_TRIALS, seed: int = DEFAULT_SEED,
             out_dir="fuzz-out",
             workloads: Optional[Sequence[str]] = None,
             schemes: Sequence[str] = DEFAULT_SCHEMES,
             minimize: bool = True,
             trial_budget: int = DEFAULT_TRIAL_BUDGET,
             log: Optional[Callable[[str], None]] = None) -> FuzzReport:
    """Run a fuzz campaign; minimized bundles land in ``out_dir``,
    raw (pre-minimization) bundles in ``out_dir/raw``."""
    out_dir = Path(out_dir)
    raw_dir = out_dir / "raw"
    raw_dir.mkdir(parents=True, exist_ok=True)
    names = tuple(workloads) if workloads else tuple(sorted(WORKLOADS))
    report = FuzzReport(seed=seed)
    for index in range(trials):
        trial = draw_trial(seed, index, names, schemes=schemes,
                           trial_budget=trial_budget)
        if not _prevalidate(trial):
            report.trials.append(trial)
            if log is not None:
                log(trial.describe())
            continue
        injector = FaultInjector(trial.plan)
        try:
            run_workload(trial.config, faults=injector,
                         crash_dir=raw_dir)
        except ReproError as exc:
            trial.outcome = "detected"
            trial.error_type = type(exc).__name__
            bundle_path = getattr(exc, "bundle_path", None)
            if bundle_path is None:
                trial.outcome = "unexpected"
                trial.detail = ("crashed with %s but wrote no bundle"
                                % trial.error_type)
            else:
                trial.bundle = Path(bundle_path)
                if minimize:
                    try:
                        trial.minimized = minimize_bundle(
                            trial.bundle, out_dir=out_dir)
                    except ReproError as min_exc:
                        trial.outcome = "unexpected"
                        trial.detail = ("minimization failed: %s"
                                        % min_exc)
        except Exception as exc:  # noqa: BLE001 — the fuzz gate itself
            trial.outcome = "unexpected"
            trial.error_type = type(exc).__name__
            trial.detail = traceback.format_exc(limit=8).strip()
        report.trials.append(trial)
        if log is not None:
            log(trial.describe())
    if log is not None:
        log(report.summary())
    return report
