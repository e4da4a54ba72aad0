"""Smoke coverage for the tracked perf suite.

No throughput thresholds here — wall-clock assertions are flaky under
CI load.  The regression gate is the separate ``bench`` CI job running
``python -m benchmarks.perf --check`` against the newest baseline
measured on the pure runtime (``BENCH_7.json``).
"""

import json

from benchmarks.perf.bench import (
    SCHEMA_NAME,
    SCHEMA_VERSION,
    check_against_baseline,
    latest_matching_baseline,
    run_suite,
)

TINY = dict(micro_scale=0.01, sweep_scale=0.01, repeats=1, quiet=True)


def test_run_suite_document_shape(tmp_path):
    doc = run_suite(**TINY)
    assert doc["schema"] == SCHEMA_NAME
    assert doc["version"] == SCHEMA_VERSION
    assert len(doc["micro"]) == 6  # 3 schemes x {8, 32} windows
    for point in doc["micro"]:
        assert point["steps"] > 0
        assert point["steps_per_sec"] > 0
    assert doc["spellcheck_steps_per_sec"] > 0
    assert doc["sweep"]["points"] == 18
    # round-trips through JSON (what --update commits)
    path = tmp_path / "bench.json"
    path.write_text(json.dumps(doc, indent=2, sort_keys=True))
    assert json.loads(path.read_text()) == doc


def test_check_flags_regressions_only():
    doc = run_suite(**TINY)
    assert check_against_baseline(doc, doc, tolerance=0.2) == []

    slower = json.loads(json.dumps(doc))
    slower["spellcheck_steps_per_sec"] = (
        doc["spellcheck_steps_per_sec"] * 0.5)
    failures = check_against_baseline(slower, doc, tolerance=0.2)
    assert any("spellcheck steps/sec" in f for f in failures)

    # a faster tree never fails the check
    faster = json.loads(json.dumps(doc))
    faster["spellcheck_steps_per_sec"] = (
        doc["spellcheck_steps_per_sec"] * 2.0)
    assert check_against_baseline(faster, doc, tolerance=0.2) == []


def test_baseline_skips_newer_compiled_documents(tmp_path):
    """Compiled-backend documents are history, never a baseline."""
    def write(n, settings):
        doc = {"schema": SCHEMA_NAME, "version": SCHEMA_VERSION,
               "bench_id": "BENCH_%d" % n, "settings": settings,
               "spellcheck_steps_per_sec": 1000.0 * n}
        (tmp_path / ("BENCH_%d.json" % n)).write_text(json.dumps(doc))

    write(3, {})  # predates backend records: pure
    write(4, {"backend": "compiled"})
    path, doc = latest_matching_baseline(tmp_path)
    assert path == tmp_path / "BENCH_3.json"
    assert doc["bench_id"] == "BENCH_3"

    write(5, {"backend": "pure"})
    path, __ = latest_matching_baseline(tmp_path)
    assert path == tmp_path / "BENCH_5.json"

