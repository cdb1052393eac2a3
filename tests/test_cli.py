import argparse
import collections
import re
import subprocess
import sys
import time
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from cachekit import CacheProfile, batch_placement, demand_stats, save_placement
from cachekit import cli, decentralized, level_index, model
from cachekit.cli import main, parse_grid
from cachekit.cli import UsageError
from cachekit.combinatorics import binomial
from cachekit.model import Placement

# `simulate --dump` stdout, pinned byte for byte
CENTRALIZED_GOLDEN = """\
centralized simulate: N=3 K=4 t=2 F=12 seed=5
demand: 2,2,1,2 (2 distinct), leaders: [1, 3]
messages: 4, rate: 2/3 = 0.666667, predicted: 2/3
decode: all users OK
1,2,3 : 40
1,2,4 : 80
1,3,4 : 80
2,3,4 : 40
"""

DECENTRALIZED_GOLDEN = """\
decentralized simulate: N=3 K=4 M=1/2 F=2000 seed=1
demand: 2,1,2,1 (2 distinct), leaders: [1, 2]
messages: 12, measured rate: 1.543500, predicted: 1.527778, relative error: 1.029%
decode: all users OK
1 : e804effedeefe0f1d715637c1ad500a1e26c5c0f1169682c22956acabf853801d21a59168a7f6be9ab8a119cb0cca215473ef98449ffd4b1f43a78e36ee276b82a9fcd173769d8fa9b95c560f2b5b50e7f8e6fdc9282aa9ab8cc36bcd86475ce952dbac1f7b3d3ebb7c22e468286553357f3ae7903eaa56f00
2 : 505fe71d5ebc6d0f7a7f34f9342baa52cc0323d255a556d77188298737bdc9788992bdd740a5e445574d89a46121e81dafb674ce5bd742c478f73d54db53d7ef7346a1f5d5299b56836e51281b1b79f3cb0ad93d6764780623e5865e4c076eefa0138fdf4155aa353398e5591124f701f8bc9428bb24c287b0
1,2 : b05deeedb46c63084c224d53115ee95ae025af25f4d2fb06
1,3 : b39924f5f32d584ad61f571be85fabec8b0bd393723ee0fa5900
1,4 : a538d3faccbe24e3c82a66f084838714a28ed0a3d24845e85900
2,3 : 35065b781b8c7ba27de795e4e37b0dd77882a71a2e27d54df8
2,4 : fea7886e834a703f5837aba03e94207ae98eba2d1307781ea0
1,2,3 : e3b2f1c7c9d0
1,2,4 : 1a6eda8ac100
1,3,4 : 661e024ac0
2,3,4 : ccd5b5c439
1,2,3,4 : ae00
"""


# `verify` stdout, pinned byte for byte: one per-type run and one full run
VERIFY_PER_TYPE_GOLDEN = """\
verify: N=3 K=9 t=7 F=72 (19683 demands, mode: per-type + 4 sampled)
demand types: 12; demands checked bit-exactly: 16
message-count and rate identities: checked on every demand verified above
cancellation identity: 1 checks
PASS
"""

VERIFY_FULL_GOLDEN = """\
verify: N=2 K=7 t=2 F=42 (128 demands, mode: full)
demand types: 4; demands checked bit-exactly: 128
message-count and rate identities: checked on every demand verified above
cancellation identity: 4 checks
PASS
"""


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def grid(spec, n):
    """The M grid `rates`/`compare` build from --grid `spec` at N=n, K=2."""
    return cli._grid(argparse.Namespace(n=n, k=2, grid=spec))


class TestGrid:
    def test_integer_grid(self):
        assert grid("0:30:1", 30) == [Fraction(j) for j in range(31)]

    def test_fractional_grid_inclusive(self):
        assert grid("0:2:0.5", 2) == [0, Fraction(1, 2), 1, Fraction(3, 2), 2]

    def test_non_dividing_step_stops_inside(self):
        assert grid("0:1:0.4", 1) == [0, Fraction(2, 5), Fraction(4, 5)]

    def test_bad_specs(self):
        for bad in ["0:2", "a:b:c", "0:2:0", "3:1:1"]:
            with pytest.raises(UsageError):
                parse_grid(bad)

    def test_point_limit(self, monkeypatch):
        # the point count is read from the spec and priced by the work estimate
        assert parse_grid("0:1:1/4") == (0, Fraction(1, 4), 5)
        monkeypatch.setattr(cli, "MAX_RATE_WORK", cli.rate_work_estimate(1, 2, 5, 4))
        assert len(grid("0:1:1/4", 1)) == 5
        with pytest.raises(UsageError, match=f"limit of {cli.MAX_RATE_WORK}"):
            grid("0:1:1/5", 1)

    def test_huge_grid_refused_fast(self, capsys):
        started = time.perf_counter()
        code, _, err = run_cli(capsys, "rates", "--n", "2", "--k", "2",
                               "--schemes", "optimal-avg", "--grid", "0:2:1/100000000")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert "needs an estimated" in err and f"limit of {cli.MAX_RATE_WORK}" in err

    def test_grid_outside_cache_range(self, capsys):
        for grid in ("0:3:1", "-1:2:1"):
            code, _, err = run_cli(capsys, "compare", "--n", "2", "--k", "2", f"--grid={grid}")
            assert code == 2
            assert "[0, 2]" in err

    @pytest.mark.parametrize("spec, points, r", [
        ("0:2:1/2", 5, 2),
        # 1/2 and 4/3: every point's denominator divides lcm(2, 6)
        ("1/2:2:5/6", 2, 6),
        # one point: its own denominator, whatever the step's
        ("0:0:1/" + "1" + "0" * 100, 1, 1),
        ("1/3:1/3:1/" + "1" + "0" * 100, 1, 3),
    ])
    def test_estimate_reads_points_and_denominator_from_the_spec(self, monkeypatch, spec, points, r):
        seen = []
        monkeypatch.setattr(cli, "rate_work_estimate", lambda N, K, p, d: seen.append((N, K, p, d)) or 0)
        assert len(grid(spec, 2)) == points
        assert seen == [(2, 2, points, r)]


def never(*args, **kwargs):
    raise AssertionError("a refused run built something")


class TestRateLimits:
    """The curves' setup and the exact sums' work are estimated from N, K and
    the grid spec, and checked before a grid or curve is built."""

    @pytest.mark.parametrize("command", ["rates", "compare"])
    @pytest.mark.parametrize("n, k, refused", [(4, 3, False), (5, 3, True), (4, 4, True)])
    def test_files_and_users_enter_the_estimate(self, capsys, monkeypatch, command, n, k, refused):
        # the default grid 0:N:1 has N + 1 points
        monkeypatch.setattr(cli, "MAX_RATE_WORK", cli.rate_work_estimate(4, 3, 5, 1))
        if refused:
            monkeypatch.setattr(cli, "rate_curve", never)
        code, out, err = run_cli(capsys, command, "--n", str(n), "--k", str(k), "--schemes", "dec-avg")
        assert code == (2 if refused else 0)
        assert (f"more than the limit of {cli.MAX_RATE_WORK}" in err) == refused
        assert (out == "") == refused

    @pytest.mark.parametrize("argv", [
        ["--n", "2000", "--k", "2000", "--grid", "0:1:1"],  # the setup: 5.3-7.2 s
        ["--n", "1", "--k", "3000", "--grid", "0:1:1"],  # the setup: 3.7 s
        ["--n", "1000000", "--k", "1000", "--grid", "1/1" + "0" * 100 + ":1:1"],  # one point: 2.4-5.7 s
        ["--n", "1000000", "--k", "1000", "--grid", "0:1000000:10000"],  # 101 points: 7 s
        ["--n", "16", "--k", "16", "--grid", "0:16:16/100000"],  # 10^5 points: 7.4 s
        ["--n", "2", "--k", str(10**12), "--grid", "0:1:1"],
    ])
    def test_real_limit_refuses_at_once(self, capsys, monkeypatch, argv):
        monkeypatch.setattr(cli, "rate_curve", never)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "compare", *argv)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err.count("\n") == 1
        assert err.endswith(" units of work (the curves' setup and the exact sums at every grid point), "
                            f"more than the limit of {cli.MAX_RATE_WORK}\n")

    def test_many_users_and_few_files_are_admitted(self, capsys):
        # many users and two files: the curves' setup is small at N = 2
        code, out, _ = run_cli(capsys, "rates", "--n", "2", "--k", "1001", "--grid", "0:2:1",
                               "--schemes", "dec-avg")
        assert code == 0
        assert out.splitlines()[-1].split() == ["2.000000", "0.000000"]

    def test_work_estimate(self):
        # K^3 * (bitlen(N) + 1) setup at 10 units; S = K * bitlen(N * r) = 3 * 3 bits a point
        assert cli.rate_work_estimate(2, 3, 3, 2) == 10 * 27 * 3 + 3 * (9 * (500 * 2 + 9) + 7 * 10**6)
        assert cli.rate_work_estimate(5, 2, 1, 1) == 10 * 8 * 4 + 1 * (6 * (500 * 2 + 6) + 7 * 10**6)
        # one point with a 10^100 denominator: S = 1000 * 353 bits, past the limit that r = 1 is within
        S = 1000 * (10**106).bit_length()
        assert cli.rate_work_estimate(10**6, 1000, 1, 10**100) == 10 * 10**9 * 21 + S * (500 * 1000 + S) + 7 * 10**6
        assert (cli.rate_work_estimate(10**6, 1000, 1, 10**100) > cli.MAX_RATE_WORK
                >= cli.rate_work_estimate(10**6, 1000, 1, 1))

    @pytest.mark.parametrize("command", ["rates", "compare"])
    def test_work_limit(self, capsys, monkeypatch, command):
        argv = [command, "--n", "2", "--k", "3", "--grid", "0:2:1/2", "--schemes", "dec-avg"]
        work = cli.rate_work_estimate(2, 3, 5, 2)
        monkeypatch.setattr(cli, "MAX_RATE_WORK", work)
        assert run_cli(capsys, *argv)[0] == 0
        monkeypatch.setattr(cli, "MAX_RATE_WORK", work - 1)
        monkeypatch.setattr(cli, "rate_curve", never)
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == ""
        assert err == (f"error: N=2 K=3 needs an estimated {work} units of work (the curves' setup and the exact "
                       f"sums at every grid point), more than the limit of {work - 1}\n")


class TestRates:
    def test_csv_contains_anchor_row(self, capsys, tmp_path):
        out = tmp_path / "rates.csv"
        code, _, _ = run_cli(
            capsys,
            "rates", "--n", "30", "--k", "30",
            "--schemes", "optimal-avg,man-avg", "--grid", "0:30:1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "M,R,scheme,N,K"
        assert len(lines) == 1 + 31 * 2
        assert "1.000000,12.669915,optimal-avg,30,30" in lines
        man_row = next(l for l in lines if l.startswith("1.000000,") and "man-avg" in l)
        assert abs(float(man_row.split(",")[1]) - 14.12) <= 0.15

    def test_envelope_midpoint_row(self, capsys, tmp_path):
        out = tmp_path / "peak.csv"
        code, _, _ = run_cli(
            capsys,
            "rates", "--n", "2", "--k", "2",
            "--schemes", "optimal-peak", "--grid", "0:2:0.5", "--out", str(out),
        )
        assert code == 0
        assert "0.500000,1.250000,optimal-peak,2,2" in out.read_text().splitlines()

    def test_missing_schemes_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rates", "--n", "2", "--k", "2")
        assert code == 2
        assert "schemes" in err

    def test_unknown_scheme_is_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "rates", "--n", "2", "--k", "2", "--schemes", "nope")
        assert code == 2
        assert "unknown scheme" in err

    def test_stdout_table_without_out(self, capsys):
        code, out, _ = run_cli(capsys, "rates", "--n", "2", "--k", "2",
                               "--schemes", "optimal-avg", "--grid", "0:2:1")
        assert code == 0
        lines = out.splitlines()
        assert lines[0].split() == ["M", "optimal-avg"]
        assert lines[2].split() == ["1.000000", "0.500000"]

    def test_byte_identical_reruns(self, capsys, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run_cli(capsys, "rates", "--n", "4", "--k", "6", "--schemes", "dec-avg,dec-peak",
                    "--grid", "0:4:0.5", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()


class TestUsageErrors:
    @pytest.mark.parametrize("argv", [
        ["rates", "--n", "0", "--k", "2", "--schemes", "optimal-avg"],
        ["compare", "--n", "2", "--k", "0"],
        ["verify", "--n", "2", "--k", "3", "--t", "1", "--f", "0"],
        ["verify", "--n", "2", "--k", "3", "--t", "1", "--sample", "-1"],
        ["verify", "--n", "3", "--k", "4", "--m", "abc"],
        ["verify", "--n", "3", "--k", "3", "--m", "6"],
        ["simulate", "--n", "2", "--k", "2", "--m", "3", "--schemes", "decentralized"],
        ["simulate", "--n", "2", "--k", "2", "--m", "1/0", "--schemes", "decentralized"],
    ])
    def test_bad_input_exits_2(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert err.startswith("error: ")

    @pytest.mark.parametrize("argv, message", [
        (["simulate", "--n", "3", "--k", "4", "--t", "2", "--demand", "1,x,2,3"],
         "bad demand '1,x,2,3'; expected comma-separated file indices"),
        (["simulate", "--n", "3", "--k", "4", "--t", "2", "--demand", "1,2,3"], "demand has 3 entries, expected K=4"),
        (["verify", "--n", "2", "--k", "3"], "need --t or --m"),
        (["simulate", "--n", "2", "--k", "3"], "need --t or --m"),
        (["verify", "--n", "2", "--k", "3", "--t", "4"], "t must be in 0..3"),
        (["simulate", "--n", "2", "--k", "3", "--t", "-1"], "t must be in 0..3"),
        (["rates", "--n", "2", "--k", "2", "--schemes", ","], "empty scheme list"),
        (["simulate", "--n", "2", "--k", "3", "--t", "1", "--schemes", "centralized,decentralized"],
         "simulate takes one scheme: centralized or decentralized"),
    ])
    def test_usage_error_messages(self, capsys, argv, message):
        assert run_cli(capsys, *argv) == (2, "", f"error: {message}\n")

    def test_internal_value_error_is_not_a_usage_error(self, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("internal fault")

        monkeypatch.setattr(cli, "rate_curve", broken)
        with pytest.raises(ValueError, match="internal fault"):
            main(["rates", "--n", "2", "--k", "2", "--schemes", "optimal-avg"])


class TestVerify:
    def test_canonical_instance_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--k", "6", "--t", "2", "--f", "30")
        assert code == 0
        assert "729 demands" in out
        assert "PASS" in out

    def test_trivial_single_file(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--k", "3", "--t", "0")
        assert code == 0
        assert "PASS" in out

    def test_four_files_five_users(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "4", "--k", "5", "--t", "3", "--f", "20")
        assert code == 0
        assert "PASS" in out

    def test_large_instance_is_priced_by_its_mode(self, capsys, monkeypatch):
        # 10^8 demands: per-type mode checks 22 types and 200 samples
        code, out, _ = run_cli(capsys, "verify", "--n", "10", "--k", "8", "--t", "1")
        assert code == 0 and "(100000000 demands, mode: per-type + 200 sampled)" in out and out.endswith("PASS\n")
        # 8 types and 200 samples of 196,196 subfile operations each are refused; without the sample they fit
        work, full = cli.verify_work_estimate(2, 14, 5, 200)
        assert (work, full) == (128 * 2 + (2 * 8 + 200) * 14 * binomial(14, 5) * 7, False)
        assert work > cli.FULL_WORK_LIMIT
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--k", "14", "--t", "5", "--sample", "0")
        assert code == 0 and "mode: per-type + 0 sampled" in out and out.endswith("PASS\n")
        monkeypatch.setattr(cli, "batch_placement", never)
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--k", "14", "--t", "5")
        assert (code, out) == (2, "")
        assert err == (f"error: N=2 K=14 t=5 F=4004 needs an estimated {work} subfile operations (the demands it "
                       f"checks), more than the limit of {cli.FULL_WORK_LIMIT}\n")

    def test_divisibility_usage_error(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "3", "--k", "6", "--t", "2", "--f", "16")
        assert code == 2
        assert "multiple" in err

    def test_m_must_give_integer_t(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "3", "--k", "4", "--m", "0.7")
        assert code == 2
        assert "non-integer" in err

    def test_contradictory_t_and_m_refused(self, capsys):
        # M=2 gives t = K*M/N = 4; --t 1 used to be checked and --m ignored
        code, out, err = run_cli(capsys, "verify", "--n", "2", "--k", "4", "--t", "1", "--m", "2")
        assert (code, out) == (2, "")
        assert "--t 1" in err and "--m 2" in err and "t = K*M/N = 4" in err

    def test_consistent_t_and_m_run(self, capsys):
        outs = [
            run_cli(capsys, "verify", "--n", "2", "--k", "4", *flags)
            for flags in (["--t", "2", "--m", "1"], ["--t", "2"], ["--m", "1"])
        ]
        assert outs[0][0] == 0 and "PASS" in outs[0][1]
        assert outs[0] == outs[1] == outs[2]

    def test_golden_stdout(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--n", "3", "--k", "9", "--t", "7", "--seed", "7", "--sample", "4")
        assert (code, out) == (0, VERIFY_PER_TYPE_GOLDEN)
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--k", "7", "--t", "2", "--seed", "7")
        assert (code, out) == (0, VERIFY_FULL_GOLDEN)

    def test_per_type_mode_never_enumerates(self, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("per-type mode enumerated all demands")

        blocks = []
        check = cli._check_block

        def counting_check(db, placement, t, demands):
            blocks.append(len(demands))
            return check(db, placement, t, demands)

        monkeypatch.setattr(model, "all_demands", refuse)
        monkeypatch.setattr(cli, "demand_range", refuse)
        monkeypatch.setattr(cli, "_check_block", counting_check)
        code, out, _ = run_cli(capsys, "verify", "--n", "10", "--k", "6", "--t", "2", "--seed", "3")
        assert code == 0
        checked = int(re.search(r"demands checked bit-exactly: (\d+)", out).group(1))
        assert checked == 211
        # every demand checked went through one block check, and no other
        assert sum(blocks) == checked

    FAILING = [
        # a type representative: the first demand of the first two-file type
        (["--n", "3", "--k", "9", "--t", "7", "--seed", "7", "--sample", "4"],
         lambda d: len(set(d)) == 2, "1,1,1,1,1,1,1,1,2"),
        # full mode walks the demands in lexicographic order
        (["--n", "2", "--k", "7", "--t", "2", "--seed", "7"],
         lambda d: len(set(d)) == 2, "1,1,1,1,1,1,2"),
        (["--n", "2", "--k", "7", "--t", "2", "--seed", "7"],
         lambda d: d[0] == 2 and d[-1] == 1, "2,1,1,1,1,1,1"),
        # no representative is out of order, so this names the first such sampled demand
        (["--n", "3", "--k", "9", "--t", "7", "--seed", "7", "--sample", "4"],
         lambda d: list(d) != sorted(d), "3,1,2,3,2,2,2,2,2"),
        (["--n", "3", "--k", "10", "--t", "3", "--seed", "5", "--sample", "30"],
         lambda d: list(d) != sorted(d), "1,1,3,2,1,3,2,3,2,1"),
    ]

    @staticmethod
    def failing_check(fails_on, blocks):
        """A block check that fails exactly the demands `fails_on` picks,
        recording each block it is handed."""
        def check(db, placement, t, demands):
            blocks.append([tuple(d) for d in demands.tolist()])
            return ["injected" if fails_on(d) else "" for d in blocks[-1]]

        return check

    @pytest.mark.parametrize("argv, fails_on, named", FAILING)
    def test_failure_names_the_first_failing_demand(self, capsys, monkeypatch, argv, fails_on, named):
        blocks = []
        monkeypatch.setattr(cli, "_check_block", self.failing_check(fails_on, blocks))
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert out.splitlines()[-1] == f"FAIL: demand={named}: injected"
        # checking stopped at the block that holds the named demand
        named = tuple(map(int, named.split(",")))
        assert named in blocks[-1] and all(named not in block for block in blocks[:-1])

    @pytest.mark.parametrize("size", [1, 3, 7])
    @pytest.mark.parametrize("argv, fails_on, named", FAILING)
    def test_failure_in_a_later_block(self, capsys, monkeypatch, size, argv, fails_on, named):
        # small blocks: the named demand is the first failing one in block
        # order, whether it opens its block, sits mid-block or ends it
        blocks = []
        monkeypatch.setattr(cli, "_check_block", self.failing_check(fails_on, blocks))
        monkeypatch.setattr(decentralized, "stack_size", lambda partition, users: size)
        code, out, _ = run_cli(capsys, "verify", *argv)
        assert code == 1
        assert out.splitlines()[-1] == f"FAIL: demand={named}: injected"
        named = tuple(map(int, named.split(",")))
        assert all(len(block) == size for block in blocks[:-1])
        assert len(blocks) > 1 or size > 1  # no case fails on its first demand
        assert named in blocks[-1] and not any(map(fails_on, sum(blocks[:-1], [])))
        where = blocks[-1].index(named)
        assert not any(map(fails_on, blocks[-1][:where]))

    def test_failure_mid_block_and_in_a_later_block(self, capsys, monkeypatch):
        # 2,1,1,1,1,1,1 is demand 64 of 128: mid-block in one block of all,
        # and the second of the 22nd block of three
        for size, (index, at) in [(128, (0, 64)), (3, (21, 1))]:
            blocks = []
            monkeypatch.setattr(cli, "_check_block", self.failing_check(lambda d: d[0] == 2 and d[-1] == 1, blocks))
            monkeypatch.setattr(decentralized, "stack_size", lambda partition, users: size)
            code, out, _ = run_cli(capsys, "verify", "--n", "2", "--k", "7", "--t", "2", "--seed", "7")
            assert code == 1 and out.splitlines()[-1] == "FAIL: demand=2,1,1,1,1,1,1: injected"
            assert (len(blocks) - 1, blocks[-1].index((2, 1, 1, 1, 1, 1, 1))) == (index, at)

    def test_block_check_reasons_in_order(self, capsys, monkeypatch):
        # the real block check, with each identity broken in turn on the
        # demands of two distinct files: count first, then rate, then decode
        N, K, t = 2, 4, 1
        F = 2 * binomial(K, t)
        db = model.make_database(N, F, seed=3)
        placement = batch_placement(N, K, t, F)
        demands = model.demand_range(0, N**K, N, K)
        two = [len(set(d)) == 2 for d in demands.tolist()]
        assert cli._check_block(db, placement, t, demands) == [""] * len(demands)
        # a cache missing one bit that user 1 holds of file 1: user 1 decodes
        # file 1 wrong wherever it wants file 1 and sees bit 0 in a partner's chunk
        codes = placement.codes.copy()
        codes[0, np.flatnonzero(codes[0] & 1)] ^= 1
        forgetful = Placement(K, codes)
        forgetful.__dict__["partition"] = placement.partition
        ones = model.Database(N, F, np.ones((N, F), dtype=np.uint8))
        reasons = cli._check_block(ones, forgetful, t, demands)
        assert reasons[0] == "user 1 decoded the wrong bits" and set(reasons) >= {""}
        monkeypatch.setattr(cli, "delivery_rate_value", lambda K, t, e, real=cli.delivery_rate_value: real(K, t, e) + (e == 2))
        reasons = cli._check_block(ones, forgetful, t, demands)
        assert [why == "delivered rate does not match the closed form" for why in reasons] == two
        monkeypatch.setattr(cli, "binomial", lambda n, k, real=cli.binomial: real(n, k) + (n == K - 2))
        reasons = cli._check_block(ones, forgetful, t, demands)
        assert [why.startswith("message count") for why in reasons] == two


class TestVerifyWork:
    def test_estimate_per_mode(self):
        # full: 128 per file, and N^K demands of K*C(K,t)*(t+2) operations each
        assert cli.verify_work_estimate(2, 7, 2, 200) == (128 * 2 + 128 * 7 * 21 * 4, True)
        # per-type: 12 representatives, their cancellation checks and 4 samples
        assert cli.verify_work_estimate(3, 9, 7, 4) == (128 * 3 + (2 * 12 + 4) * 9 * 36 * 9, False)
        # the sample is at most N^K
        assert cli.verify_work_estimate(1, 30, 1, 200) == (128 + 30 * 30 * 3, True)

    def test_estimate_counts_the_files(self):
        # a stack holds a leader slot per demand and file, at most 2^18, and
        # copies the database: at N = 10^5, K = 1 a full-mode run takes minutes
        assert (cli.verify_work_estimate(10**5, 1, 0, 200)
                == (128 * 10**5 + 10**5 * (2 + 3125 + (10**10 >> 18)), True))
        for N, K in [(10**5, 1), (10**6, 1), (3 * 10**5, 2)]:
            assert cli.verify_work_estimate(N, K, 0, 200)[0] > cli.FULL_WORK_LIMIT
        # 3.8 s and 1.2 s in full mode, 2.3 s per type
        for N, K in [(1000, 2), (18000, 1), (150000, 2)]:
            assert cli.verify_work_estimate(N, K, 0, 200)[0] <= cli.FULL_WORK_LIMIT

    def test_estimate_counts_python_int_codes(self):
        # past 64 users every subset code is a Python int: 16 times the work
        # (verify --n 1 --k 64 --t 3 takes 2.6 s, --k 65 15.6 s and --k 218 --t 2 18-28 s)
        assert cli.verify_work_estimate(1, 64, 3, 200) == (128 + 64 * binomial(64, 3) * 5, True)
        assert cli.verify_work_estimate(1, 65, 3, 0) == (128 + 2 * 16 * 65 * binomial(65, 3) * 5, False)
        for K, t in [(65, 3), (218, 2), (1000, 1)]:
            assert cli.verify_work_estimate(1, K, t, 200)[0] > cli.FULL_WORK_LIMIT
        for K, t in [(65, 2), (100, 2), (400, 1), (20000, 0)]:
            assert cli.verify_work_estimate(1, K, t, 200)[0] <= cli.FULL_WORK_LIMIT

    def test_many_user_decode_is_refused_before_anything_is_built(self, capsys, monkeypatch):
        # within the memory limit (0.78 GB), past the work limit
        monkeypatch.setattr(cli, "batch_placement", never)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", "--n", "1", "--k", "218", "--t", "2")
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        assert err.startswith("error: N=1 K=218 t=2 F=47306 needs an estimated ") and "subfile operations" in err

    def test_per_type_run_at_the_limit(self, capsys, monkeypatch):
        argv = ["verify", "--n", "3", "--k", "9", "--t", "7", "--seed", "7", "--sample", "4"]
        work, full = cli.verify_work_estimate(3, 9, 7, 4)
        monkeypatch.setattr(cli, "FULL_WORK_LIMIT", work)
        assert run_cli(capsys, *argv) == (0, VERIFY_PER_TYPE_GOLDEN, "")
        monkeypatch.setattr(cli, "FULL_WORK_LIMIT", work - 1)
        monkeypatch.setattr(cli, "batch_placement", never)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "") and f"needs an estimated {work} subfile operations" in err

    @pytest.mark.parametrize("argv", [["--n", "1", "--k", "20000", "--t", "10000"],
                                      ["--n", "1", "--k", "1000000", "--t", "500000"],
                                      ["--n", "2", "--k", "1000000", "--t", "999960", "--f", "7"]])
    def test_huge_binomial_is_refused_before_it_is_computed(self, capsys, monkeypatch, argv):
        # C(K,t) subfiles, a byte each at least, are more than the memory limit holds
        monkeypatch.setattr(cli, "binomial", never)
        started = time.perf_counter()
        code, out, err = run_cli(capsys, "verify", *argv)
        assert time.perf_counter() - started < 1.0
        assert (code, out) == (2, "")
        N, K, t = argv[1], argv[3], argv[5]
        assert err == f"error: N={N} K={K} t={t} needs C({K},{t}) > {cli.MAX_BYTES} subfiles, past the byte limit\n"


class TestBatchCost:
    # the three inputs below are never run: each would try to allocate gigabytes
    @pytest.mark.parametrize("N, K, t, F", [
        (1, 30, 15, None),  # verify --n 1 --k 30 --t 15
        (2, 30, 15, None),  # simulate --n 2 --k 30 --t 15
        (2, 24, 12, 2704156),  # simulate --n 2 --k 24 --t 12 --f 2704156
    ])
    def test_estimate_refuses_huge_instances(self, N, K, t, F):
        groups = binomial(K, t)
        F = 2 * groups if F is None else F
        estimate = cli.bytes_estimate(N, K, F, {t: groups})
        # per bit a uint32 code (K <= 32) and its 8-byte sort-order entry, plus
        # the (t+1)-subsets' pairs, counted once per group they hold
        assert estimate == (4 + 8) * N * F + cli.BYTES_PER_PAIR * groups * (K - t) * (t + 1)
        assert estimate > cli.MAX_BYTES

    def test_estimate_counts_python_int_codes(self):
        # past 64 users each code is a pointer to an int object of its own,
        # and each subset's code is built twice
        int_bytes = sys.getsizeof(1 << 65)
        assert (cli.bytes_estimate(2, 65, 130, {64: 65})
                == 2 * 130 * (8 + 8 + int_bytes) + cli.BYTES_PER_PAIR * 65 * 65 + 2 * int_bytes * 65)

    def test_estimate_sizes_python_ints_without_building_them(self):
        for K in [*range(1, 200), 400, 1000, 20000, 10**5]:
            code = model.code_dtype(K)
            per_bit = code.itemsize + 8 + (sys.getsizeof(1 << K) if code == object else 0)
            assert cli.bytes_estimate(1, K, 1, {}) == per_bit
        # K = 10^10 users: a code of 1.3 GB, sized by arithmetic alone
        assert cli.bytes_estimate(1, 10**10, 1, {}) == 8 + 8 + 24 + 4 * (10**10 // 30 + 1)

    def test_estimate_admits_moderate_instances(self):
        for N, K, t in [(3, 6, 5), (2, 14, 13), (3, 9, 6), (2, 65, 64), (10, 6, 2), (2, 18, 9)]:
            assert cli.bytes_estimate(N, K, 2 * binomial(K, t), {t: binomial(K, t)}) <= cli.MAX_BYTES

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_refused_with_the_estimate(self, capsys, monkeypatch, command):
        estimate = cli.bytes_estimate(2, 4, 12, {2: 6})
        monkeypatch.setattr(cli, "MAX_BYTES", estimate - 1)
        monkeypatch.setattr(cli, "batch_placement", None)  # nothing may be built
        code, out, err = run_cli(capsys, command, "--n", "2", "--k", "4", "--t", "2")
        assert code == 2
        assert out == ""
        assert err == (f"error: N=2 K=4 t=2 F=12 needs an estimated {estimate} bytes (6 subfile groups and "
                       f"the subsets they serve), more than the limit of {estimate - 1}\n")

    def test_at_the_limit_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_BYTES", cli.bytes_estimate(2, 4, 12, {2: 6}))
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--k", "4", "--t", "2")
        assert code == 0 and out.endswith("PASS\n")

    @pytest.mark.parametrize("K", [100000, 10**10])
    def test_many_users_are_refused_before_the_placement(self, capsys, monkeypatch, K):
        # one demand of one file, but K codes of K bits: 1.3 GB at K=10^5
        monkeypatch.setattr(cli, "batch_placement", never)
        code, out, err = run_cli(capsys, "verify", "--n", "1", "--k", str(K), "--t", "0")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: N=1 K={K} t=0 F=2 needs an estimated ")

    def test_many_users_run(self, capsys):
        # within the limit, the index reads each subset's users from its group
        start = time.perf_counter()
        code, out, _ = run_cli(capsys, "verify", "--n", "1", "--k", "20000", "--t", "0")
        assert code == 0 and out.endswith("PASS\n")
        assert time.perf_counter() - start < 10


class TestDecentralizedCost:
    def test_estimate_counts_the_pairs_each_level_may_serve(self):
        # K=3: one group of no user and three of one, serving up to 1*3
        # subsets of one user and 3*2 of two: 3 + 12 pairs; uint8 codes
        assert cli.bytes_estimate(2, 3, 10, {0: 1, 1: 3}) == 2 * 10 * (1 + 8) + cli.BYTES_PER_PAIR * 15
        # past 64 users each subset's code is an int object of its own, built twice
        int_bytes = sys.getsizeof(1 << 65)
        assert (cli.bytes_estimate(2, 65, 10, {1: 2})
                == 2 * 10 * (8 + 8 + int_bytes) + cli.BYTES_PER_PAIR * 2 * 64 * 2 + 2 * int_bytes * 2 * 64)

    @pytest.mark.parametrize("N, K, M, F, t", [
        pytest.param(3, 16, 1, 2000, None, id="3-16-1-2000"),
        pytest.param(2, 18, 1, 2000, None, id="2-18-1-2000"),
        pytest.param(3, 20, 1, 3000, None, id="3-20-1-3000"),
        # batch, default F: one level, each subset counted once per group it holds
        pytest.param(2, 16, None, 2 * binomial(16, 8), 8, id="batch-2-16-8"),
        pytest.param(1, 400, None, 2 * 400, 1, id="batch-1-400-1"),
        pytest.param(1, 1000, None, 2 * 1000, 1, id="batch-1-1000-1"),
    ])
    def test_estimate_bounds_a_runs_allocations(self, N, K, M, F, t):
        # the index build, the encode and an all-user decode, traced: 28-77 %
        # of the estimate here. The gathers' blocks take about 1 MB whatever
        # the instance, which the estimate leaves out: it is for instances
        # whose index pairs outweigh them
        if t is None:
            placement = decentralized.random_placement(N, K, M, F, seed=1)
        else:
            placement = batch_placement.__wrapped__(N, K, t, F)  # a fresh one, its index not yet built
        partition = placement.partition
        counts = collections.Counter(c.bit_count() for c in partition.codes.tolist())
        db = model.make_database(N, F, seed=2)
        d = tuple(np.random.default_rng(3).integers(1, N + 1, size=K).tolist())
        tracemalloc.start()
        try:
            broadcast = decentralized.encode_delivery(db, partition, d)
            decoded = decentralized.decode_users(range(1, K + 1), db, placement, partition, broadcast, d)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(decoded, db.bits[np.subtract(d, 1)])
        assert peak <= cli.bytes_estimate(N, K, F, counts)

    def test_k70_is_refused_before_the_index_is_built(self, capsys, monkeypatch):
        # the placement and its partition are small; the index would not be
        def build_levels(partition):
            raise AssertionError("the delivery index was built")

        monkeypatch.setattr(level_index, "build_levels", build_levels)
        code, out, err = run_cli(capsys, "simulate", "--schemes", "decentralized", "--n", "3", "--k", "70",
                                 "--m", "1", "--seed", "3")
        assert code == 2
        assert out == ""
        assert "N=3 K=70 M=1 F=10000 needs an estimated" in err and str(cli.MAX_BYTES) in err

    def test_many_users_are_refused_before_the_placement(self, capsys, monkeypatch):
        # K=10^10 codes of 1.3 GB each: refused before any is drawn
        monkeypatch.setattr(decentralized, "random_placement", never)
        code, out, err = run_cli(capsys, "simulate", "--schemes", "decentralized", "--n", "1",
                                 "--k", "10000000000", "--m", "0", "--f", "1")
        assert (code, out) == (2, "")
        assert err.startswith("error: N=1 K=10000000000 M=0 F=1 needs an estimated ")
        assert err.endswith(f" bytes (placement codes and their sort order), more than the limit of {cli.MAX_BYTES}\n")


class TestSimulate:
    @pytest.mark.parametrize("scheme", [["--t", "10"], ["--schemes", "decentralized", "--m", "1"]])
    def test_a_wrong_demand_is_refused_before_anything_is_built(self, capsys, monkeypatch, scheme):
        for name in ("batch_placement", "make_database"):
            monkeypatch.setattr(cli, name, never)
        monkeypatch.setattr(decentralized, "random_placement", never)
        assert run_cli(capsys, "simulate", "--n", "2", "--k", "20", *scheme, "--demand", "1,2") == (
            2, "", "error: demand has 2 entries, expected K=20\n")

    def test_canonical_demand(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "3", "--k", "6", "--t", "2", "--f", "15",
            "--demand", "1,1,2,2,3,3",
        )
        assert code == 0
        assert "19" in out and "19/15" in out
        assert "all users OK" in out

    def test_dump_transcript_format(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "3", "--k", "6", "--t", "2", "--f", "15",
            "--demand", "1,1,2,2,3,3", "--dump",
        )
        assert code == 0
        transcript = [l for l in out.splitlines() if " : " in l]
        assert len(transcript) == 19
        assert all(re.fullmatch(r"\d(,\d)* : [0-9a-f]+", l) for l in transcript)

    def test_deterministic_output(self, capsys):
        args = ["simulate", "--n", "3", "--k", "4", "--t", "2", "--f", "12", "--seed", "5", "--dump"]
        _, out1, _ = run_cli(capsys, *args)
        _, out2, _ = run_cli(capsys, *args)
        assert out1 == out2

    def test_centralized_golden_transcript(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--n", "3", "--k", "4", "--t", "2", "--f", "12",
                               "--seed", "5", "--dump")
        assert code == 0
        assert out == CENTRALIZED_GOLDEN

    def test_decentralized_golden_transcript(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--schemes", "decentralized", "--n", "3", "--k", "4",
                               "--m", "1/2", "--f", "2000", "--seed", "1", "--dump")
        assert code == 0
        assert out == DECENTRALIZED_GOLDEN

    def test_centralized_many_users(self, capsys):
        # past 64 users the codes are Python ints; the partition is built alike
        code, out, _ = run_cli(capsys, "simulate", "--n", "2", "--k", "65", "--t", "64", "--f", "65", "--dump")
        assert code == 0
        assert "decode: all users OK" in out
        assert len([l for l in out.splitlines() if " : " in l]) == 1

    def test_decentralized_small(self, capsys):
        code, out, _ = run_cli(
            capsys,
            "simulate", "--n", "3", "--k", "4", "--m", "1", "--f", "30000",
            "--schemes", "decentralized", "--demand", "1,2,3,1",
        )
        assert code == 0
        assert "all users OK" in out
        rel = float(re.search(r"relative error: ([0-9.]+)%", out).group(1))
        assert rel < 5.0

    def test_decentralized_past_64_users(self, capsys):
        code, out, _ = run_cli(capsys, "simulate", "--schemes", "decentralized", "--n", "2", "--k", "65",
                               "--m", "1", "--f", "40")
        assert code == 0
        assert "decode: all users OK" in out

    def test_decentralized_large_k_small_f(self, capsys):
        # 2^40 user subsets, but only the few non-empty groups of 2*64 bits
        # are walked by encode and decode
        code, out, _ = run_cli(
            capsys,
            "simulate", "--schemes", "decentralized", "--n", "2", "--k", "40",
            "--m", "1/2", "--f", "64", "--seed", "1",
        )
        assert code == 0
        assert "decode: all users OK" in out

    def test_decentralized_requires_m(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--n", "2", "--k", "2",
                               "--schemes", "decentralized")
        assert code == 2
        assert "--m" in err

    def test_bad_demand(self, capsys):
        code, _, err = run_cli(
            capsys,
            "simulate", "--n", "2", "--k", "3", "--t", "1", "--demand", "1,5,1",
        )
        assert code == 2

    def test_contradictory_t_and_m_refused(self, capsys):
        # M=1 gives t = 2; the run used to go ahead at --t 3
        code, out, err = run_cli(capsys, "simulate", "--n", "2", "--k", "4", "--m", "1", "--t", "3")
        assert (code, out) == (2, "")
        assert "--t 3" in err and "--m 1" in err and "t = K*M/N = 2" in err

    def test_consistent_t_and_m_run(self, capsys):
        outs = [
            run_cli(capsys, "simulate", "--n", "2", "--k", "4", "--seed", "3", "--dump", *flags)
            for flags in (["--t", "2", "--m", "1"], ["--t", "2"], ["--m", "1"])
        ]
        assert outs[0][0] == 0 and "t=2" in outs[0][1]
        assert outs[0] == outs[1] == outs[2]

    def test_decentralized_refuses_t(self, capsys):
        # decentralized placement reads only --m; --t used to be ignored
        code, out, err = run_cli(capsys, "simulate", "--schemes", "decentralized",
                                 "--n", "2", "--k", "4", "--m", "1", "--t", "3")
        assert (code, out) == (2, "")
        assert "--t" in err


class TestBound:
    def test_batch_placement_bound_and_achieved(self, capsys, tmp_path):
        N, K, t, F = 3, 4, 2, 12
        path = tmp_path / "batch.placement"
        save_placement(path, batch_placement(N, K, t, F), N, F, M=Fraction(t * N, K))
        code, out, _ = run_cli(capsys, "bound", str(path))
        assert code == 0
        assert "batch-structured with t=2" in out
        # worst type (2,1,1): bound = 2/3 - 1/12 = 0.583333, achieved 2/3
        line = next(l for l in out.splitlines() if "(2, 1, 1)" in l)
        assert "bound=0.583333" in line and "achieved=0.666667" in line

    @pytest.mark.parametrize("F, runs", [
        # C(3,1) | F, but the groups of each file hold 3, 2 and 1 bits (in
        # the second file 1, 2 and 3, so each set's total over files is equal)
        (6, [(3, 2, 1), (1, 2, 3)]),
        # every group of the first file holds 2 or 3 bits: C(3,1) does not divide F
        (7, [(3, 2, 2), (2, 2, 3)]),
    ])
    def test_one_level_placement_not_batch_structured(self, capsys, tmp_path, F, runs):
        # every bit is cached by exactly one of K=3 users, yet the groups are
        # not F / C(K, t) bits each, so bound reports no achieved rate
        N, K = 2, 3
        codes = np.array([np.repeat([1, 2, 4], per_file) for per_file in runs], dtype=np.uint8)
        codes.setflags(write=False)
        path = tmp_path / "level.placement"
        save_placement(path, Placement(K, codes), N, F, M=1)
        code, out, _ = run_cli(capsys, "bound", str(path))
        assert code == 0
        assert f"  n=1: {N * F}" in out.splitlines()
        assert "batch-structured" not in out and "achieved=" not in out

    def test_empty_placement_bound_is_distinct_count(self, capsys, tmp_path):
        from cachekit.decentralized import random_placement

        N, K, F = 3, 4, 100
        path = tmp_path / "empty.placement"
        save_placement(path, random_placement(N, K, 0, F, seed=0), N, F, M=0)
        code, out, _ = run_cli(capsys, "bound", str(path))
        assert code == 0
        line = next(l for l in out.splitlines() if "(2, 1, 1)" in l)
        # bound = distinct - 1/F = 3 - 0.01
        assert "bound=2.990000" in line

    def test_past_64_users(self, capsys, tmp_path):
        from cachekit.decentralized import random_placement

        N, K, F = 2, 65, 40
        placement = random_placement(N, K, 1, F, seed=3)
        path = tmp_path / "many.placement"
        save_placement(path, placement, N, F, M=1)
        code, out, _ = run_cli(capsys, "bound", str(path))
        assert code == 0
        coverage = CacheProfile.from_placement(placement).coverage
        assert all(f"  n={n}: {a}" in out.splitlines() for n, a in enumerate(coverage) if a)

    def test_profile_computed_once(self, capsys, tmp_path, monkeypatch):
        N, K, t, F = 3, 4, 2, 12
        path = tmp_path / "batch.placement"
        save_placement(path, batch_placement(N, K, t, F), N, F, M=Fraction(t * N, K))
        calls = []
        original = CacheProfile.from_placement

        def counted(placement):
            calls.append(placement)
            return original(placement)

        monkeypatch.setattr(cli.CacheProfile, "from_placement", counted)
        code, out, _ = run_cli(capsys, "bound", str(path))
        assert code == 0 and "batch-structured with t=2" in out
        assert len(calls) == 1

    def test_type_count_limit(self, capsys, tmp_path, monkeypatch):
        # N=3, K=4 has the 4 types (4), (3,1), (2,2), (2,1,1)
        N, K, t, F = 3, 4, 2, 12
        path = tmp_path / "batch.placement"
        save_placement(path, batch_placement(N, K, t, F), N, F, M=Fraction(t * N, K))
        monkeypatch.setattr(cli, "MAX_BOUND_TYPES", 4)
        code, out, _ = run_cli(capsys, "bound", str(path))
        assert code == 0 and out.count("  type ") == 4

        def never(N, K):
            raise AssertionError("types enumerated past the limit")

        monkeypatch.setattr(cli, "MAX_BOUND_TYPES", 3)
        monkeypatch.setattr(cli, "enumerate_types", never)
        code, out, err = run_cli(capsys, "bound", str(path))
        assert (code, out) == (2, "")
        assert "4 demand types" in err and "limit of 3" in err

    def test_malformed_file_reports_line(self, capsys, tmp_path):
        path = tmp_path / "bad.placement"
        path.write_text("2 2 4 1\n1 1:0\n2 zz\n")
        code, _, err = run_cli(capsys, "bound", str(path))
        assert code == 2
        assert "line 3" in err

    def test_lines_after_users_report_line(self, capsys, tmp_path):
        path = tmp_path / "long.placement"
        path.write_text("2 2 4 1\n1 1:0\n2\n3 1:1\n")
        code, _, err = run_cli(capsys, "bound", str(path))
        assert code == 2
        assert "line 4" in err

    def test_missing_file(self, capsys, tmp_path):
        code, _, err = run_cli(capsys, "bound", str(tmp_path / "nope"))
        assert code == 2

    @pytest.mark.parametrize("text, message", [
        ("", "line 1: empty file"),
        ("0 2 4 1\n", "line 1: invalid parameters K=0 N=2 F=4 M=1"),
        ("2 2 4 3\n1\n2\n", "line 1: invalid parameters K=2 N=2 F=4 M=3"),
        ("2 2 4 1\n1 1:0\n", "line 2: expected 2 user lines, got 1"),
        ("2 2 4 1\n\n2\n", "line 2: missing user index"),
        ("2 2 4 1\nx 1:0\n2\n", "line 2: bad user index 'x'"),
        ("2 2 4 1\n2\n1\n", "line 2: expected user 1, got 2"),
    ])
    def test_placement_file_faults(self, capsys, tmp_path, text, message):
        path = tmp_path / "bad.placement"
        path.write_text(text)
        assert run_cli(capsys, "bound", str(path)) == (2, "", f"error: cannot parse {path}: {message}\n")

    def test_a_file_that_is_not_text(self, capsys, tmp_path):
        path = tmp_path / "image.placement"
        path.write_bytes(b"\x89PNG\r\n\x1a\n\x00\x00\x00\rIHDR")
        code, out, err = run_cli(capsys, "bound", str(path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {path}: 'utf-8' codec can't decode byte 0x89")

    def test_a_directory(self, capsys, tmp_path):
        code, out, err = run_cli(capsys, "bound", str(tmp_path))
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot read {tmp_path}: ")

    def test_a_placement_is_bounded_before_it_is_built(self, capsys, tmp_path, monkeypatch):
        # the header's N*F codes are estimated before `load_placement` runs:
        # this file asks for 10^10 bits, 90 GB with their sort order
        path = tmp_path / "huge.placement"
        path.write_text("1 1 10000000000 0\n1\n")
        monkeypatch.setattr(cli, "load_placement", never)
        code, out, err = run_cli(capsys, "bound", str(path))
        assert (code, out) == (2, "")
        assert err == (f"error: N=1 K=1 F=10000000000 needs an estimated {9 * 10**10} bytes (placement codes "
                       f"and their sort order), more than the limit of {cli.MAX_BYTES}\n")
        # at the limit the file is loaded; one byte below it, it is refused
        N, K, t, F = 3, 4, 2, 12
        save_placement(path, batch_placement(N, K, t, F), N, F, M=Fraction(t * N, K))
        monkeypatch.setattr(cli, "MAX_BYTES", N * F * 9 - 1)
        code, out, err = run_cli(capsys, "bound", str(path))
        assert (code, out) == (2, "")
        assert f"needs an estimated {N * F * 9} bytes" in err
        monkeypatch.undo()
        monkeypatch.setattr(cli, "MAX_BYTES", N * F * 9)
        code, out, _ = run_cli(capsys, "bound", str(path))
        assert code == 0 and "batch-structured with t=2" in out

    def test_more_users_than_the_file_has_room_for(self, capsys, tmp_path, monkeypatch):
        # a header whose K user lines cannot fit in the file is not
        # estimated: `load_placement` refuses it by line count
        path = tmp_path / "users.placement"
        path.write_text("10000000000 1 1 0\n1\n")
        monkeypatch.setattr(cli, "bytes_estimate", never)
        assert run_cli(capsys, "bound", str(path)) == (
            2, "", f"error: cannot parse {path}: line 2: expected 10000000000 user lines, got 1\n")


class TestOutputFiles:
    @pytest.mark.parametrize("command", ["rates", "compare"])
    def test_an_unwritable_out_path_is_a_usage_error(self, capsys, tmp_path, command):
        for path, reason in [(tmp_path / "missing" / "x.csv", "No such file or directory"),
                             (tmp_path, "Is a directory")]:
            code, out, err = run_cli(capsys, command, "--n", "2", "--k", "2", "--schemes", "dec-avg",
                                     "--out", str(path))
            assert (code, out) == (2, "")
            assert err.startswith(f"error: cannot write {path}: ") and reason in err

    @pytest.mark.parametrize("command", ["rates", "compare"])
    def test_the_out_path_is_opened_before_any_curve(self, capsys, tmp_path, monkeypatch, command):
        monkeypatch.setattr(cli, "rate_curve", never)
        path = tmp_path / "missing" / "x.csv"
        args = [command, "--n", "1000", "--k", "1000", "--schemes", "dec-avg", "--out", str(path)]
        code, out, err = run_cli(capsys, *args, "--grid", "0:1000:25")
        assert (code, out) == (2, "")
        assert err.startswith(f"error: cannot write {path}: ")
        # and after the grid's own checks
        code, out, err = run_cli(capsys, *args, "--grid", "0:1000:0")
        assert (code, out, err) == (2, "", "error: bad grid '0:1000:0'; need step > 0 and stop >= start\n")


class TestFailureOutput:
    def test_verify_reports_a_failed_cancellation_identity(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "verify_message_cancellation", lambda *args: False)
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--k", "3", "--t", "1")
        assert code == 1
        assert out.splitlines()[-2:] == ["cancellation identity: 1 checks",
                                         "FAIL: demand=1,1,1: cancellation identity failed on group (1, 2, 3)"]

    def test_simulate_reports_a_rate_mismatch(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "delivery_rate_value", lambda *args: Fraction(1))
        code, out, _ = run_cli(capsys, "simulate", "--n", "3", "--k", "4", "--t", "2", "--seed", "5")
        assert code == 1
        assert out.splitlines()[-3:] == ["messages: 4, rate: 2/3 = 0.666667, predicted: 1",
                                         "decode: all users OK", "rate mismatch: measured 2/3 vs predicted 1"]


class TestCompare:
    def test_wide_csv_dominance(self, capsys, tmp_path):
        out = tmp_path / "cmp.csv"
        code, _, _ = run_cli(
            capsys,
            "compare", "--n", "6", "--k", "4", "--grid", "0:6:1", "--out", str(out),
        )
        assert code == 0
        lines = out.read_text().splitlines()
        header = lines[0].split(",")
        assert header[0] == "M"
        cols = {name: idx for idx, name in enumerate(header)}
        prev = None
        for line in lines[1:]:
            vals = [float(x) for x in line.split(",")]
            assert vals[cols["optimal-avg"]] <= vals[cols["man-avg"]] + 1e-9
            assert vals[cols["dec-avg"]] <= vals[cols["man-dec-avg"]] + 1e-9
            if prev is not None:
                assert vals[cols["optimal-peak"]] <= prev[cols["optimal-peak"]] + 1e-9
            prev = vals

    def test_strict_improvement_at_unit_cache(self, capsys):
        code, out, _ = run_cli(capsys, "compare", "--n", "30", "--k", "30", "--grid", "1:1:1")
        assert code == 0
        row = out.splitlines()[1].split(",")
        header = out.splitlines()[0].split(",")
        vals = dict(zip(header, row))
        assert float(vals["optimal-avg"]) < float(vals["man-avg"])


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "cachekit.cli", "verify", "--n", "2", "--k", "3", "--t", "1", "--f", "6"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "PASS" in proc.stdout


def test_env_seed_respected(capsys, monkeypatch):
    monkeypatch.setenv("CACHEKIT_SEED", "9")
    args = ["simulate", "--n", "2", "--k", "3", "--t", "1", "--f", "6"]
    _, out_env, _ = run_cli(capsys, *args)
    monkeypatch.delenv("CACHEKIT_SEED")
    _, out_default, _ = run_cli(capsys, *args, "--seed", "9")
    assert out_env == out_default


# the options each subcommand takes: exactly the flags its cmd_* function reads
SUBCOMMAND_OPTIONS = {
    "rates": {"--n", "--k", "--grid", "--schemes", "--out"},
    "compare": {"--n", "--k", "--grid", "--schemes", "--out"},
    "verify": {"--n", "--k", "--m", "--t", "--f", "--seed", "--sample"},
    "simulate": {"--n", "--k", "--m", "--t", "--f", "--seed", "--schemes", "--demand", "--dump"},
    "bound": {"placement"},
}

# a valid invocation of each subcommand, and a value for each flag that takes one
VALID_ARGV = {
    "rates": ["rates", "--n", "2", "--k", "2", "--schemes", "optimal-avg"],
    "compare": ["compare", "--n", "2", "--k", "2"],
    "verify": ["verify", "--n", "2", "--k", "3", "--t", "1"],
    "simulate": ["simulate", "--n", "2", "--k", "3", "--t", "1"],
    "bound": ["bound", "my.placement"],
}
FLAG_VALUES = {
    "--n": "2", "--k": "3", "--m": "1", "--t": "1", "--f": "0", "--seed": "4",
    "--grid": "0:2:1", "--schemes": "decentralized", "--out": "x.csv", "--demand": "9,9,9",
}
# the 11 flags every subcommand used to take, whether it read them or not
COMMON_FLAGS = [*FLAG_VALUES, "--dump"]
REMOVED = [(command, flag) for command in VALID_ARGV for flag in COMMON_FLAGS
           if flag not in SUBCOMMAND_OPTIONS[command]]


class TestParserOnce:
    def test_parser_is_built_once(self):
        assert cli.build_parser() is cli.build_parser()

    def test_calls_in_a_row_get_independent_namespaces(self, capsys, monkeypatch, tmp_path):
        seen = []
        monkeypatch.setattr(cli, "_check_sizes", seen.append)  # main hands it the namespace
        out = tmp_path / "rates.csv"
        assert main(["rates", "--n", "2", "--k", "2", "--schemes", "optimal-avg", "--out", str(out)]) == 0
        assert main(["compare", "--n", "3", "--k", "2"]) == 0
        first, second = seen
        assert first is not second
        assert (first.command, first.n, first.out, first.schemes) == ("rates", 2, str(out), "optimal-avg")
        assert (second.command, second.n, second.out, second.schemes) == ("compare", 3, None, None)

    def test_stray_flag_error_does_not_leak_into_the_next_call(self, capsys, monkeypatch):
        seen = []
        monkeypatch.setattr(cli, "_check_sizes", seen.append)
        with pytest.raises(SystemExit) as exc:
            main(["bound", "my.placement", "--f", "0"])
        assert exc.value.code == 2
        assert "unrecognized arguments: --f 0" in capsys.readouterr().err
        assert seen == []
        assert main(VALID_ARGV["compare"]) == 0
        (args,) = seen
        assert args.command == "compare"
        assert not hasattr(args, "f") and not hasattr(args, "placement")
        assert capsys.readouterr().err == ""


class TestSubcommandFlags:
    def test_each_subcommand_declares_exactly_its_options(self):
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        declared = {
            name: {s for a in p._actions if not isinstance(a, argparse._HelpAction)
                   for s in (a.option_strings or [a.dest])}
            for name, p in commands.items()
        }
        assert declared == SUBCOMMAND_OPTIONS
        assert sum(map(len, declared.values())) == 27
        # each subcommand used to take all 11 common flags (plus verify's
        # --sample and bound's placement): 57 options, 30 of them unread
        assert len(REMOVED) == 30
        assert ("verify", "--demand") in REMOVED and ("verify", "--schemes") in REMOVED

    @pytest.mark.parametrize("command, flag", REMOVED)
    def test_flag_the_subcommand_does_not_take_exits_2(self, capsys, monkeypatch, command, flag):
        def reached(args):
            raise AssertionError("a stray flag got past argument parsing")

        monkeypatch.setattr(cli, "_check_sizes", reached)
        stray = [flag, FLAG_VALUES[flag]] if flag in FLAG_VALUES else [flag]
        with pytest.raises(SystemExit) as exc:
            main([*VALID_ARGV[command], *stray])
        assert exc.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "unrecognized arguments: " in captured.err and flag in captured.err

    @pytest.mark.parametrize("stray", [["--f", "0"], ["--seed", "3"], ["--f=0"], ["--dump"]])
    @pytest.mark.parametrize("before", [True, False])
    def test_stray_flag_is_named_with_its_value_not_the_placement(self, capsys, stray, before):
        # `0` used to be taken for the placement and `my.placement` named as stray
        argv = ["bound", *stray, "my.placement"] if before else ["bound", "my.placement", *stray]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"cachekit: error: unrecognized arguments: {' '.join(stray)}"
        assert "my.placement" not in err

    def test_subcommand_parser_reads_sys_argv_by_default(self, monkeypatch):
        # argparse's own default: parse_known_args() with no args reads sys.argv[1:]
        parser = cli.build_parser()
        commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
        monkeypatch.setattr(sys, "argv", ["cachekit", "my.placement", "--f", "0"])
        namespace, extras = commands["bound"].parse_known_args()
        assert namespace.placement == "my.placement"
        assert extras == ["--f", "0"]

    @pytest.mark.parametrize("command", VALID_ARGV)
    def test_valid_invocation_parses(self, command):
        args = cli.build_parser().parse_args(VALID_ARGV[command])
        assert args.fn is cli.SUBCOMMANDS[command][0]
