import importlib.util
import pathlib
from fractions import Fraction

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
