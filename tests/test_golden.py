"""Byte-for-byte stdout of `verify`, `simulate --dump`, `compare`, `rates`
and `scripts/converse_experiment.py`, and the CSVs of
`scripts/tradeoff_tables.py`, against files in `tests/golden/`. The delivery
files were written by the engine before its demand-stacked form: two
full-mode `verify` runs, two runs with an injected failure, one `simulate
--dump` transcript per scheme and one converse experiment. The rate files
were written by the rate layer before its integer-exact form: `compare` at
K=16 on the perfbench grid for three N, one `rates` table over all seven
schemes and the four default tradeoff tables. `DIGESTS` pins twelve more
`simulate --dump` transcripts by their SHA-256. Regenerate a file only when
its output is meant to change: `python tests/test_golden.py NAME...`
(`tradeoff_tables` rewrites the four CSVs, `digests` prints the digests)."""

import contextlib
import hashlib
import importlib.util
import io
import pathlib
import sys

import numpy as np
import pytest

from cachekit import cli
from cachekit.model import Placement
from cachekit.rate_analysis import SCHEMES

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
    **{f"compare_{N}_16": (["compare", "--n", str(N), "--k", "16", "--grid", f"0:{N}:{N}/40"], {})
       for N in (16, 517, 4111)},
    "rates_5_8_all_schemes": (["rates", "--n", "5", "--k", "8", "--grid", "0:5:5/24",
                               "--schemes", ",".join(SCHEMES)], {}),
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


# sha256 of `exit code N` and then the stdout of `simulate ARGS`, for
# transcripts too large to keep as files (the K=65 decentralized dump is
# about 140 KB), written by the engine before its one-pass `decode_stack`
DIGESTS = {
    "--n 3 --k 6 --t 2 --seed 1 --dump":
        "f7f3a370e487bbb5b23b2051392147ccab12fa83938a7ee2bf55d7c0d9d69efa",
    "--n 3 --k 6 --t 2 --seed 7 --dump":
        "3d6bba8a09a3867906452c10e9eff477a6daa91a3a8450f40978a744584cace2",
    "--n 2 --k 7 --t 3 --seed 1 --dump":
        "4a6f88ddea614f024146af8ed58f94986bac8bf100687559a519cbe9d469fb9f",
    "--n 2 --k 7 --t 3 --seed 7 --dump":
        "732e8189071eb5ee5ce71040f1093941eb3a88e30e037a440760ad42b603917a",
    "--schemes decentralized --n 3 --k 6 --m 1 --seed 1 --dump":
        "c7c4c805a1407e9e1bca5fe0b2edd991fe873044d095669df352017f3f02f608",
    "--schemes decentralized --n 3 --k 6 --m 1 --seed 7 --dump":
        "95d30d83fa19dce9e589acd2145bcd3383be7e9b02622e7f680696a28c7e7fdd",
    "--schemes decentralized --n 4 --k 8 --m 2 --seed 1 --dump":
        "30ea314be0d075b67abfa154b97f7ad6b0b89111b38b3ade035eb8cd13f4a1e5",
    "--schemes decentralized --n 4 --k 8 --m 2 --seed 7 --dump":
        "ece25461a78d9102057e7ba45491b4142c58ae141e0465bfcd876a3f8dcc748b",
    "--n 2 --k 65 --t 64 --seed 1 --dump":
        "dcffb3b4a515b952819f82d1ad1ee8c601e5ed9070844fa75b8f311a65339acf",
    "--n 2 --k 65 --t 64 --seed 7 --dump":
        "1e38afd4bf99d82120058744ead5ab78c71bc41373b052abf4385dc9de8f922d",
    "--schemes decentralized --n 3 --k 65 --m 1 --f 64 --seed 1 --dump":
        "4381ddc093116dbe23cafc7bf9974c85ec0e0305a8dae749dab02981e265d607",
    "--schemes decentralized --n 3 --k 65 --m 1 --f 64 --seed 7 --dump":
        "8dfefb87ec01da4dde96b6ca64d514a30784c4c9136c1e4c6e995d8aa39a4ba0",
}


def simulate_digest(args):
    """The sha256 of `exit code N` and then the stdout of `simulate ARGS`."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["simulate", *args.split()])
    return hashlib.sha256(f"exit code {code}\n{out.getvalue()}".encode()).hexdigest()


@pytest.mark.parametrize("args", sorted(DIGESTS))
def test_simulate_dump_matches_digest(args):
    assert simulate_digest(args) == DIGESTS[args]


CONVERSE_ARGV = ["--n", "2", "--k", "4", "--m", "1", "--f", "120", "--placements", "4"]


def load_script(name):
    path = GOLDEN.parent.parent / "scripts" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def converse_experiment():
    """`exit code N` and then the stdout of the converse experiment."""
    script = load_script("converse_experiment")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = script.main(CONVERSE_ARGV)
    return f"exit code {code}\n{out.getvalue()}"


def test_converse_experiment_matches_golden():
    assert converse_experiment() == (GOLDEN / "converse_experiment.txt").read_text()


TABLES_DIR = GOLDEN / "tradeoff_tables"


def tradeoff_tables(outdir):
    """Run `scripts/tradeoff_tables.py` at its default `--points-per-t` into
    `outdir`; the names of the CSVs it writes."""
    script = load_script("tradeoff_tables")
    with contextlib.redirect_stdout(io.StringIO()):
        assert script.main(["--outdir", str(outdir)]) == 0
    return sorted(name for name, *_ in script.TABLES)


def test_tradeoff_tables_match_golden(tmp_path):
    names = tradeoff_tables(tmp_path)
    assert sorted(p.name for p in TABLES_DIR.iterdir()) == names
    for name in names:
        assert (tmp_path / name).read_bytes() == (TABLES_DIR / name).read_bytes(), name


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
        if name == "tradeoff_tables":
            tradeoff_tables(TABLES_DIR)
            continue
        if name == "digests":
            for args in DIGESTS:
                print(f"{args}: {simulate_digest(args)}")
            continue
        saved = {attr: getattr(cli, attr) for attr in CASES[name][1]}
        try:
            (GOLDEN / f"{name}.txt").write_text(render(name))
        finally:
            for attr, value in saved.items():
                setattr(cli, attr, value)
