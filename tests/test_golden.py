"""Byte-for-byte stdout of `verify`, `simulate --dump` and
`scripts/converse_experiment.py`, against files in `tests/golden/` written
by the delivery engine before its demand-stacked form: two full-mode
`verify` runs, two runs with an injected failure, one `simulate --dump`
transcript per scheme and one converse experiment. Regenerate a file only
when its output is meant to change: `python tests/test_golden.py NAME...`."""

import contextlib
import importlib.util
import io
import pathlib
import sys

import numpy as np
import pytest

from cachekit import cli
from cachekit.model import Placement

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"


def forgetful_batch_placement(user, file, count):
    """`cli.batch_placement` with `user` forgetting its first `count` cached
    bits of `file`, delivered over the intact placement's partition: the
    broadcast is the right one, and only what that user decodes can go wrong."""
    real = cli.batch_placement

    def placement(N, K, t, F):
        intact = real(N, K, t, F)
        codes = intact.codes.copy()
        bit = codes.dtype.type(1 << (user - 1))
        codes[file - 1, np.flatnonzero(codes[file - 1] & bit)[:count]] ^= bit
        codes.setflags(write=False)
        forgetful = Placement(K, codes)
        forgetful.__dict__["partition"] = intact.partition  # cached_property's slot
        return forgetful

    return placement


def rate_off_at_two_files(K, t, distinct, real=cli.delivery_rate_value):
    """The closed-form rate, one file too high at two distinct files."""
    return real(K, t, distinct) + (distinct == 2)


# name -> (argv, {cli attribute: replacement})
CASES = {
    "verify_2_8_1": (["verify", "--n", "2", "--k", "8", "--t", "1", "--seed", "7"], {}),
    "verify_3_6_2": (["verify", "--n", "3", "--k", "6", "--t", "2", "--seed", "7"], {}),
    "verify_3_6_2_forgetful_user": (["verify", "--n", "3", "--k", "6", "--t", "2", "--seed", "7"],
                                    {"batch_placement": forgetful_batch_placement(5, 3, 3)}),
    "verify_3_9_7_rate_off": (["verify", "--n", "3", "--k", "9", "--t", "7", "--seed", "7", "--sample", "4"],
                              {"delivery_rate_value": rate_off_at_two_files}),
    "simulate_centralized": (["simulate", "--n", "3", "--k", "6", "--t", "2", "--f", "30", "--seed", "3", "--dump"], {}),
    "simulate_decentralized": (["simulate", "--schemes", "decentralized", "--n", "3", "--k", "5", "--m", "1",
                                "--f", "300", "--seed", "2", "--dump"], {}),
}


def render(name, patch=setattr):
    """`exit code N` and then the stdout of case `name`."""
    argv, replacements = CASES[name]
    for attr, value in replacements.items():
        patch(cli, attr, value)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return f"exit code {code}\n{out.getvalue()}"


@pytest.mark.parametrize("name", sorted(CASES))
def test_stdout_matches_golden(name, monkeypatch):
    assert render(name, monkeypatch.setattr) == (GOLDEN / f"{name}.txt").read_text()


CONVERSE_ARGV = ["--n", "2", "--k", "4", "--m", "1", "--f", "120", "--placements", "4"]


def converse_experiment():
    """`exit code N` and then the stdout of the converse experiment."""
    path = GOLDEN.parent.parent / "scripts" / "converse_experiment.py"
    spec = importlib.util.spec_from_file_location("converse_experiment", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = script.main(CONVERSE_ARGV)
    return f"exit code {code}\n{out.getvalue()}"


def test_converse_experiment_matches_golden():
    assert converse_experiment() == (GOLDEN / "converse_experiment.txt").read_text()


def test_injected_cases_fail():
    # the injections are live: each run names a failing demand
    for name in ("verify_3_6_2_forgetful_user", "verify_3_9_7_rate_off"):
        text = (GOLDEN / f"{name}.txt").read_text()
        assert text.startswith("exit code 1\n") and "\nFAIL: demand=" in text


if __name__ == "__main__":
    for name in sys.argv[1:]:
        if name == "converse_experiment":
            (GOLDEN / f"{name}.txt").write_text(converse_experiment())
            continue
        saved = {attr: getattr(cli, attr) for attr in CASES[name][1]}
        try:
            (GOLDEN / f"{name}.txt").write_text(render(name))
        finally:
            for attr, value in saved.items():
                setattr(cli, attr, value)
