import argparse
import re
import subprocess
import sys
import time
from fractions import Fraction

import numpy as np
import pytest

from cachekit import CacheProfile, batch_placement, demand_stats, save_placement
from cachekit import cli, decentralized, model
from cachekit.cli import MAX_GRID_POINTS, main, parse_grid
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


class TestGrid:
    def test_integer_grid(self):
        assert parse_grid("0:30:1") == [Fraction(j) for j in range(31)]

    def test_fractional_grid_inclusive(self):
        assert parse_grid("0:2:0.5") == [0, Fraction(1, 2), 1, Fraction(3, 2), 2]

    def test_non_dividing_step_stops_inside(self):
        assert parse_grid("0:1:0.4") == [0, Fraction(2, 5), Fraction(4, 5)]

    def test_bad_specs(self):
        for bad in ["0:2", "a:b:c", "0:2:0", "3:1:1"]:
            with pytest.raises(UsageError):
                parse_grid(bad)

    def test_point_limit(self, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 5)
        assert len(parse_grid("0:1:1/4")) == 5
        with pytest.raises(UsageError, match="limit of 5"):
            parse_grid("0:1:1/5")

    def test_huge_grid_refused_fast(self, capsys):
        started = time.perf_counter()
        code, _, err = run_cli(capsys, "rates", "--n", "2", "--k", "2",
                               "--schemes", "optimal-avg", "--grid", "0:2:1/100000000")
        assert time.perf_counter() - started < 1.0
        assert code == 2
        assert str(MAX_GRID_POINTS) in err

    def test_grid_outside_cache_range(self, capsys):
        for grid in ("0:3:1", "-1:2:1"):
            code, _, err = run_cli(capsys, "compare", "--n", "2", "--k", "2", f"--grid={grid}")
            assert code == 2
            assert "[0, 2]" in err


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

    def test_guard_refuses_large_instance(self, capsys):
        code, _, err = run_cli(capsys, "verify", "--n", "10", "--k", "8", "--t", "1")
        assert code == 2
        assert "guard" in err

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
        estimate = cli.batch_bytes_estimate(N, K, t, F)
        # per bit a uint32 code (K <= 32) and its 8-byte sort-order entry, plus the groups
        assert estimate == (4 + 8) * N * F + cli.BYTES_PER_SUBFILE * groups
        assert estimate > cli.MAX_BATCH_BYTES

    def test_estimate_counts_python_int_codes(self):
        # past 64 users each code is a pointer to an int object of its own
        per_bit = 8 + 8 + sys.getsizeof(1 << 65)
        assert cli.batch_bytes_estimate(2, 65, 64, 130) == 2 * 130 * per_bit + cli.BYTES_PER_SUBFILE * 65

    def test_estimate_admits_moderate_instances(self):
        for N, K, t in [(3, 6, 5), (2, 14, 13), (3, 9, 6), (2, 65, 64), (10, 6, 2), (2, 18, 9)]:
            assert cli.batch_bytes_estimate(N, K, t, 2 * binomial(K, t)) <= cli.MAX_BATCH_BYTES

    @pytest.mark.parametrize("command", ["verify", "simulate"])
    def test_refused_with_the_estimate(self, capsys, monkeypatch, command):
        estimate = cli.batch_bytes_estimate(2, 4, 2, 12)
        monkeypatch.setattr(cli, "MAX_BATCH_BYTES", estimate - 1)
        monkeypatch.setattr(cli, "batch_placement", None)  # nothing may be built
        code, out, err = run_cli(capsys, command, "--n", "2", "--k", "4", "--t", "2")
        assert code == 2
        assert out == ""
        assert str(estimate) in err and str(estimate - 1) in err

    def test_at_the_limit_runs(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_BATCH_BYTES", cli.batch_bytes_estimate(2, 4, 2, 12))
        code, out, _ = run_cli(capsys, "verify", "--n", "2", "--k", "4", "--t", "2")
        assert code == 0 and out.endswith("PASS\n")


class TestSimulate:
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
