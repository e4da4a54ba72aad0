"""The ``python -m repro.experiments`` command-line interface."""

import pytest

from repro.experiments.__main__ import main


@pytest.fixture(autouse=True)
def _isolated_cache(tmp_path, monkeypatch):
    """Keep CLI sweeps out of the user-level result cache; also
    exercises the REPRO_CACHE_DIR knob the engine documents."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))


def test_table2_target(capsys):
    assert main(["table2"]) == 0
    out = capsys.readouterr().out
    assert "Table 2" in out
    assert "145 - 149" in out
    assert "engine: 3 points" in out


def test_figure_target_with_tiny_sweep(capsys):
    assert main(["fig13", "--scale", "0.02", "--windows", "4,8"]) == 0
    out = capsys.readouterr().out
    assert "Figure 13" in out
    assert "computed in" in out


def test_table1_target(capsys):
    assert main(["table1", "--scale", "0.02"]) == 0
    out = capsys.readouterr().out
    assert "T6.dict1" in out
    assert "paper" in out


def test_repeated_figure_run_is_pure_cache_hits(capsys):
    args = ["fig12", "--scale", "0.02", "--windows", "4,6",
            "--jobs", "2"]
    assert main(args) == 0
    first = capsys.readouterr().out
    assert "18 executed" in first
    assert main(args) == 0
    second = capsys.readouterr().out
    assert "18 cached (100%), 0 executed" in second
    # the cached run renders the identical figure (everything up to
    # the wall-clock line)
    assert (first.split("(fig12 computed")[0]
            == second.split("(fig12 computed")[0])


def test_no_cache_forces_execution(capsys):
    args = ["fig13", "--scale", "0.02", "--windows", "4", "--no-cache"]
    assert main(args) == 0
    assert main(args) == 0
    out = capsys.readouterr().out
    assert "0 cached (0%), 9 executed" in out


def test_no_cache_runs_the_shared_grid_once(capsys, tmp_path):
    """Figures 12 and 13 re-plot Figure 11's grid: under --no-cache one
    invocation executes it once and serves the repeats from memory,
    still writing nothing to disk."""
    assert main(["all", "--scale", "0.01", "--windows", "4",
                 "--jobs", "1", "--no-cache"]) == 0
    out = capsys.readouterr().out
    engine_lines = [line for line in out.splitlines()
                    if line.startswith("engine: ")]
    assert len(engine_lines) == 7
    executed = sum(int(line.split(" executed")[0].rsplit(" ", 1)[1])
                   for line in engine_lines)
    assert executed == 6 + 3 + 3 * 9
    assert out.rstrip().splitlines()[-1] == \
        "report memo: 18 point(s) served from memory (--no-cache)"
    assert not (tmp_path / "cache").exists()


def test_unknown_target_rejected():
    with pytest.raises(SystemExit):
        main(["fig99"])


def test_keep_going_quarantines_and_names_the_manifest(capsys):
    assert main(["fig13", "--scale", "0.02", "--windows", "6",
                 "--jobs", "2", "--faults", "retval@5",
                 "--keep-going", "--retries", "1"]) == 0
    out = capsys.readouterr().out
    assert "quarantined" in out
    assert "failure manifest: " in out


def test_injected_fault_without_keep_going_fails_loudly(capsys):
    from repro.experiments.engine import EngineError

    with pytest.raises(EngineError) as info:
        main(["fig13", "--scale", "0.02", "--windows", "6",
              "--faults", "retval@5", "--retries", "1"])
    assert "WindowIntegrityError" in str(info.value)
