"""Every subcommand, drawn around its admission boundaries: a run either
prints its header and exits 0 (or 1 with the failure it names), or exits 2
with one `error:` line and no output, and either way within a fixed wall
budget.

The limits are scaled down for the draws, so an admitted run stays small:
the estimates and checks are the real ones, and each boundary lies among
instances that take milliseconds and a few MB. Runs far past a boundary
(10^6 users, 10^100 denominators, 2^63 demands) are drawn too: they must be
refused at once.
"""

import contextlib
import io
import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cachekit import cli, decentralized, save_placement
from cachekit.rate_analysis import SCHEMES

LIMITS = {"MAX_BYTES": 2**18, "FULL_WORK_LIMIT": 4 * 10**4, "MAX_RATE_WORK": 4 * 10**9, "MAX_BOUND_TYPES": 60}
WALL_BUDGET = 2.0  # seconds a draw may take, admitted or refused
COMPARE_DEFAULT = ["optimal-avg", "man-avg", "optimal-peak", "dec-avg", "man-dec-avg", "dec-peak"]


def sizes(*bounds: int):
    """Integers from 1 up to the last bound, drawn about evenly from each
    range between bounds, and that last bound itself."""
    lows = (0, *bounds[:-1])
    return st.one_of(*(st.integers(a + 1, b) for a, b in zip(lows, bounds)), st.just(bounds[-1]))


@st.composite
def rate_runs(draw):
    command = draw(st.sampled_from(["rates", "compare"]))
    N = draw(sizes(4, 40, 10**6, 10**12))
    K = draw(sizes(12, 40, 700, 10**9))
    r = draw(st.one_of(sizes(12, 10**6), st.sampled_from([10**10, 10**30, 10**100])))
    count = draw(sizes(50, 700, 10**8))
    start = Fraction(draw(st.integers(0, r)), r)
    step = Fraction(draw(st.integers(1, 3)), r)
    argv = [command, "--n", str(N), "--k", str(K), "--grid", f"{start}:{start + (count - 1) * step}:{step}"]
    labels = draw(st.lists(st.sampled_from(sorted(SCHEMES)), min_size=1, max_size=3, unique=True))
    if command == "rates" or draw(st.booleans()):
        argv += ["--schemes", ",".join(labels)]
    else:
        labels = COMPARE_DEFAULT
    header = ("M," + ",".join(labels)) if command == "compare" else None
    return argv, header, labels


@st.composite
def verify_runs(draw):
    N = draw(sizes(4, 40, 10**6, 2**63))
    K = draw(sizes(8, 16, 24, 80, 3000, 10**6))
    t = draw(st.one_of(st.integers(0, min(K, 2)), st.integers(0, min(K, 6)), st.integers(max(0, K - 2), K),
                       st.integers(0, K)))
    argv = ["verify", "--n", str(N), "--k", str(K), "--t", str(t), "--sample", str(draw(st.integers(0, 300)))]
    return argv, f"verify: N={N} K={K} t={t} F=", None


@st.composite
def simulate_runs(draw):
    scheme = draw(st.sampled_from(["centralized", "decentralized"]))
    N = draw(sizes(8, 10**5, 10**9))
    K = draw(sizes(12, 70, 3000, 10**7))
    argv = ["simulate", "--schemes", scheme, "--n", str(N), "--k", str(K), "--seed", str(draw(st.integers(0, 9)))]
    if scheme == "centralized":
        argv += ["--t", str(draw(st.integers(0, min(K, 6)) | st.integers(max(0, K - 6), K)))]
    else:
        argv += ["--m", str(Fraction(draw(st.integers(0, 4 * N)), 4))]
        f = draw(st.one_of(st.none(), st.integers(1, 3000), st.just(10**9)))
        argv += [] if f is None else ["--f", str(f)]
    if K <= 70 and draw(st.booleans()):
        argv += ["--demand", ",".join(str(draw(st.integers(1, N))) for _ in range(K))]
    return argv, f"{scheme} simulate: N={N} K={K} ", None


@st.composite
def bound_runs(draw, folder):
    N, K, F = draw(st.integers(1, 13)), draw(st.integers(1, 13)), draw(st.integers(1, 40))
    M = Fraction(draw(st.integers(0, 4 * N)), 4)
    path = folder / f"p{N}-{K}-{F}-{M.numerator}-{M.denominator}.txt"
    if draw(st.booleans()):
        save_placement(path, decentralized.random_placement(N, K, M, F, seed=1), N, F, M)
        return ["bound", str(path)], f"placement: K={K} N={N} F={F} M={M}", None
    # a header that claims more than the file holds
    K, F = draw(st.sampled_from([(K, 10**10), (10**10, F), (2, 2**40)]))
    path.write_text(f"{K} {N} {F} {M}\n1\n")
    return ["bound", str(path)], None, None


def run(argv):
    out, err = io.StringIO(), io.StringIO()
    started = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue(), err.getvalue(), time.perf_counter() - started


@pytest.fixture(scope="module")
def folder(tmp_path_factory):
    return tmp_path_factory.mktemp("placements")


@settings(max_examples=200, deadline=None)
@given(data=st.data())
def test_every_run_is_answered_or_refused_within_the_budget(data, folder):
    argv, header, labels = data.draw(st.one_of(rate_runs(), verify_runs(), simulate_runs(), bound_runs(folder)))
    with pytest.MonkeyPatch.context() as mp:
        for name, value in LIMITS.items():
            mp.setattr(cli, name, value)
        code, out, err, took = run(argv)
    assert took < WALL_BUDGET, (argv, took)
    if code == 2:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1, (argv, out, err)
        return
    assert err == "", (argv, err)
    lines = out.splitlines()
    command = argv[0]
    if command in ("rates", "compare"):
        assert code == 0
        if header:
            assert lines[0] == header
        else:
            assert lines[0].split() == ["M", *labels]
        start, step, count = cli.parse_grid(argv[argv.index("--grid") + 1])
        r = math.lcm(start.denominator, step.denominator) if count > 1 else start.denominator
        assert len(lines) == 1 + count
        assert cli.rate_work_estimate(int(argv[2]), int(argv[4]), count, r) <= LIMITS["MAX_RATE_WORK"]
    elif command == "verify":
        assert lines[0].startswith(header)
        assert lines[-1] == "PASS" if code == 0 else (code == 1 and lines[-1].startswith("FAIL: "))
    elif command == "simulate":
        assert lines[0].startswith(header)
        assert code == 0 or (code == 1 and ("rate mismatch" in out or "decode: FAILED" in out))
    else:
        assert (code, lines[0]) == (0, header)
