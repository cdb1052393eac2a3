import importlib.util
import pathlib
from fractions import Fraction

import pytest

SCRIPTS = pathlib.Path(__file__).resolve().parents[1] / "scripts"


def load_script(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ARGS = ["--n", "2", "--k", "2", "--f", "12", "--placements", "1"]


def test_converse_experiment_passes(capsys):
    assert load_script("converse_experiment").main(ARGS) == 0
    assert "bound violations: 0" in capsys.readouterr().out


def test_converse_experiment_fails_on_violation(capsys, monkeypatch):
    script = load_script("converse_experiment")
    monkeypatch.setattr(script, "converse_bound", lambda *args, **kwargs: Fraction(100))
    assert script.main(ARGS) == 1
    assert "bound violations: 0" not in capsys.readouterr().out


@pytest.mark.parametrize("flag", ["--n", "--k", "--f"])
@pytest.mark.parametrize("value", ["0", "-1"])
def test_converse_experiment_refuses_bad_sizes(capsys, flag, value):
    with pytest.raises(SystemExit) as exc:
        load_script("converse_experiment").main([*ARGS, flag, value])
    assert exc.value.code == 2
    assert f"{flag} must be at least 1" in capsys.readouterr().err


def test_tradeoff_tables_writes_four_tables(capsys, tmp_path):
    script = load_script("tradeoff_tables")
    assert script.main(["--outdir", str(tmp_path), "--points-per-t", "1"]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(name for name, *_ in script.TABLES)
    for name, N, K, labels in script.TABLES:
        lines = (tmp_path / name).read_text().splitlines()
        assert lines[0] == "M,R,scheme,N,K"
        assert len(lines) == 1 + (K + 1) * len(labels)


@pytest.mark.parametrize("points", ["0", "-1"])
def test_tradeoff_tables_refuses_bad_points_per_t(capsys, tmp_path, points):
    outdir = tmp_path / "out"
    with pytest.raises(SystemExit) as exc:
        load_script("tradeoff_tables").main(["--outdir", str(outdir), "--points-per-t", points])
    assert exc.value.code == 2
    assert "--points-per-t must be at least 1" in capsys.readouterr().err
    assert not outdir.exists()


@pytest.mark.parametrize("argv,message", [
    (["--m", "5"], "--m must be in [0, 3], got 5"),
    (["--m=-1/2"], "--m must be in [0, 3], got -1/2"),
    (["--placements", "-2"], "--placements must be non-negative, got -2"),
    (["--n", "4", "--k", "10"], "N^K = 1048576 demands per placement exceeds the exhaustion guard"),
])
def test_converse_experiment_refuses_bad_input(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        load_script("converse_experiment").main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert message in captured.err
    assert "bound violations" not in captured.out


def test_converse_experiment_exhaustion_guard_is_the_cli_one(capsys, monkeypatch):
    script = load_script("converse_experiment")
    monkeypatch.setattr(script.cli, "EXHAUSTION_GUARD", 2**2 - 1)
    with pytest.raises(SystemExit) as exc:
        script.main(ARGS)
    assert exc.value.code == 2
    monkeypatch.setattr(script.cli, "EXHAUSTION_GUARD", 2**2)
    assert script.main(ARGS) == 0


def test_converse_experiment_skips_batch_rows_when_subfiles_do_not_split(capsys):
    # C(4, 2) = 6 does not divide F = 7: no batch rows, the random placements still run
    assert load_script("converse_experiment").main(["--n", "2", "--k", "4", "--m", "1", "--f", "7",
                                                    "--placements", "2"]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[0] == "batch placement t=2: skipped, F=7 is not a multiple of C(4,2) = 6"
    assert "type (" in out and "bound violations: 0" in out
