import contextlib
import inspect
import io
import json
import math
import os
import subprocess
import sys
import warnings

import pytest

import treerecon.cli
from treerecon import binary_channel, compute_c, potts_channel
from treerecon.oracle import (LYAPUNOV_MARGIN_TOL, SUITE_SIZE, TOLERANCES,
                              random_suite, run_suite)
from treerecon.variational import MIN_GRID_POINTS

QUICK = ["--starts", "8", "--grid-points", "50001"]


NUMPY_ONLY_RUNS = [
    ["c-of-m", "--family", "potts", "--q", "3", "--beta", "0.8", "--starts", "4"],
    ["bounds", "--family", "binary", "--delta1", "0.3", "--delta2", "0.1",
     "--branching", "17"],
    ["table1", "--delta2-list", "0.2,0.8"],
    ["verify", "--count", "3"],
    ["simulate", "--family", "binary", "--delta1", "0.3", "--delta2", "0.1",
     "--tree", "regular:d=2", "--depth", "3", "--samples", "200"],
]


def test_cli_import_loads_no_scipy():
    # numpy is the only runtime dependency: with scipy unimportable, every
    # command still runs, and importing the CLI loads no scipy module
    import treerecon

    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(treerecon.__file__)))
    script = f"""
import contextlib, io, sys
sys.modules["scipy"] = None  # every import of scipy now raises ImportError
import treerecon.cli
loaded = [m for m, mod in sys.modules.items() if m.split(".")[0] == "scipy" and mod]
codes = []
for argv in {NUMPY_ONLY_RUNS!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(treerecon.cli.main([*argv, "--format", "json"]))
print(loaded, codes)
"""
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == f"[] {[0] * len(NUMPY_ONLY_RUNS)}"


def test_c_of_m_table_format(run_cli):
    code, out, err = run_cli(["c-of-m", "--family", "potts", "--q", "2",
                              "--beta", "0.5", "--format", "table", *QUICK])
    assert code == 0
    assert f"c = {math.tanh(0.5) ** 2:.6f}" in out
    assert "near-center limit" in out
    assert err == ""
    # six significant digits, not decimals: a small c stays visible above
    # its still smaller limit
    code, out, err = run_cli(["c-of-m", "--family", "binary", "--delta1", "0.01",
                              "--delta2", "0.0100001", "--format", "table", *QUICK])
    assert code == 0 and err == ""
    assert "c = 1.34071e-13\n" in out
    assert "near-center limit = 1e-14 (is maximizer: no)" in out


def test_c_of_m_json_format(run_cli):
    code, out, _ = run_cli(["c-of-m", "--family", "potts", "--q", "2",
                            "--beta", "0.5", "--format", "json",
                            "--seed", "5", *QUICK])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "c-of-m"
    assert abs(report["value"] - math.tanh(0.5) ** 2) <= 1e-6
    assert report["near_center_is_max"] is True
    assert report["seed"] == 5
    assert report["method"] == "grid-1d"
    # the refinement's steps count as iterations; each step evaluates one
    # point per bracket after the grid, and this grid has one bracket
    assert report["evaluations"] == MIN_GRID_POINTS + report["iterations"]
    assert report["failed_starts"] == 0
    assert len(report["argmax"]) == 2
    assert "channel" in report


def test_c_of_m_csv_format(run_cli):
    code, out, _ = run_cli(["c-of-m", "--family", "binary", "--delta1", "0.3",
                            "--delta2", "0.1", "--format", "csv", *QUICK])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "value,near_center_limit,near_center_is_max"
    value, limit, flag = lines[1].split(",")
    assert abs(float(value) - 0.0579) <= 5e-4
    assert abs(float(limit) - 0.04) <= 1e-5
    assert flag == "false"


@pytest.mark.parametrize("channel, ch", [
    (["--family", "binary", "--delta1", "0.01", "--delta2", "0.0100001"],
     binary_channel(0.01, 0.0100001)),
    (["--family", "potts", "--q", "3", "--beta", "1e-4"], potts_channel(3, 1e-4)),
], ids=["binary", "potts3"])
def test_c_of_m_prints_the_verdict_as_computed(run_cli, channel, ch):
    # c lies within 1e-9 of the limit in absolute terms, yet above it by
    # 13.4x and 9.3%: the table says the limit is not the maximizer, and the
    # JSON carries c as compute_c, and bounds, report it.
    code, out, _ = run_cli(["c-of-m", *channel, "--format", "table"])
    assert code == 0 and "(is maximizer: no)" in out
    code, out, _ = run_cli(["c-of-m", *channel, "--format", "json"])
    report = json.loads(out)
    assert report["near_center_is_max"] is False
    assert report["value"] > report["near_center_limit"] > 0.0
    result = compute_c(ch)
    assert report["value"] == result.value
    assert report["near_center_limit"] == result.trace.near_center_value
    code, out, _ = run_cli(["bounds", *channel, "--format", "json"])
    assert json.loads(out)["reports"][0]["constants"]["fk"] == report["value"]


class _Stdout(io.StringIO):
    def __init__(self, tty: bool):
        super().__init__()
        self.tty = tty

    def isatty(self) -> bool:
        return self.tty


@pytest.mark.parametrize("ttys", [(True, False), (False, True)])
def test_default_format_follows_the_terminal_of_each_call(ttys):
    # without --format, c-of-m prints a table on a terminal and CSV when
    # piped, decided at every call of one process
    argv = ["c-of-m", "--family", "potts", "--q", "2", "--beta", "0.5", *QUICK]
    for tty in ttys:
        out = _Stdout(tty)
        with contextlib.redirect_stdout(out):
            assert treerecon.cli.main(argv) == 0
        first = out.getvalue().splitlines()[0]
        if tty:
            assert first != "value,near_center_limit,near_center_is_max"
            assert f"c = {math.tanh(0.5) ** 2:.6f}" in out.getvalue()
        else:
            assert first == "value,near_center_limit,near_center_is_max"


def test_c_of_m_channel_json_inline_and_file(run_cli, tmp_path):
    spec = '{"matrix": [[0.7, 0.3], [0.9, 0.1]]}'
    code, out, _ = run_cli(["c-of-m", "--channel", spec,
                            "--format", "json", *QUICK])
    assert code == 0
    inline_value = json.loads(out)["value"]
    assert abs(inline_value - 0.0579) <= 5e-4

    path = tmp_path / "channel.json"
    path.write_text(spec, encoding="utf-8")
    code, out, _ = run_cli(["c-of-m", "--channel", str(path),
                            "--format", "json", *QUICK])
    assert code == 0
    assert json.loads(out)["value"] == inline_value


def test_validation_failures_exit_2(run_cli):
    cases = [
        ["c-of-m", "--family", "binary", "--delta1", "0.3", "--delta2", "1.0"],
        ["c-of-m", "--family", "binary", "--delta1", "0.3"],
        ["c-of-m", "--family", "potts", "--q", "3"],
        ["c-of-m", "--channel", "{not json"],
        ["c-of-m", "--channel", "/no/such/file.json"],
        ["c-of-m", "--channel", "{}", "--family", "potts",
         "--q", "2", "--beta", "1.0"],
        ["c-of-m"],
        ["c-of-m", "--family", "potts", "--q", "2", "--beta", "0.5",
         "--threads", "-1"],
        # every command validates --threads, though only simulate uses it
        ["bounds", "--family", "potts", "--q", "2", "--beta", "0.5",
         "--threads", "-1"],
        ["table1", "--threads", "-1"],
        ["verify", "--count", "1", "--threads", "-1"],
        ["simulate", "--family", "potts", "--q", "2", "--beta", "0.5",
         "--tree", "regular:d=2", "--depth", "2", "--samples", "10",
         "--threads", "-1"],
        ["bounds", "--family", "potts", "--q", "2", "--beta", "400"],
        *(["bounds", "--family", "binary", "--delta1", "0.3", "--delta2", "0.1",
           "--branching", b] for b in ("-2", "0.5", "nan", "inf")),
        ["table1", "--branching", "nan"],
        *(["c-of-m", "--family", "potts", "--q", "3", "--beta", "0.8",
           "--starts", n, "--format", "json"] for n in ("0", "-2")),
        *(["c-of-m", "--family", "potts", "--q", q, "--beta", "0.8",
           "--max-iters", n] for q in ("2", "3") for n in ("0", "-5")),
        # below one grid point, on the grid and the lumped route and on a raw
        # q = 3 channel, whose multistart route has no grid
        *(["c-of-m", *channel, "--grid-points", n] for n in ("0", "-5") for channel in (
            ["--family", "binary", "--delta1", "0.3", "--delta2", "0.1"],
            ["--family", "potts", "--q", "3", "--beta", "0.8"],
            ["--starts", "2", "--channel",
             '{"matrix": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]}'])),
        # an empty --delta2-list is given, not the default grid
        ["table1", "--delta2-list", ""],
        ["table1", "--delta2-list", "0.2,,0.3"],
        # a JSON field that is null, a list or a fractional q is a channel
        # error, not a traceback, and q is never truncated
        *(["c-of-m", "--channel", text] for text in (
            '{"family": "potts", "q": null, "beta": 1}',
            '{"family": "potts", "q": 3, "beta": null}',
            '{"family": "potts", "q": 3, "beta": [1]}',
            '{"family": "potts", "q": 3.9, "beta": 1}',
            '{"family": "binary", "delta1": null, "delta2": 0.1}',
            '{"family": "binary", "delta1": 0.3, "delta2": [0.1]}',
            '{"q": null, "matrix": [[0.6, 0.4], [0.2, 0.8]]}',
            '{"q": 2.7, "matrix": [[0.6, 0.4], [0.2, 0.8]]}')),
        # every command rejects a negative seed, whether or not its route
        # draws from it
        *([*argv, "--seed", "-1"] for argv in (
            ["c-of-m", "--family", "binary", "--delta1", "0.3", "--delta2", "0.1"],
            ["c-of-m", "--family", "potts", "--q", "3", "--beta", "0.8"],
            ["c-of-m", "--starts", "2", "--channel",
             '{"matrix": [[0.5, 0.3, 0.2], [0.2, 0.5, 0.3], [0.3, 0.2, 0.5]]}'],
            ["bounds", "--family", "potts", "--q", "2", "--beta", "0.5"],
            ["table1", "--delta2-list", "0.2"],
            ["verify", "--count", "1"],
            ["simulate", "--family", "potts", "--q", "2", "--beta", "0.5",
             "--tree", "regular:d=2", "--depth", "2", "--samples", "10"])),
    ]
    for argv in cases:
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert "error:" in err
    code, _, err = run_cli(["c-of-m", "--channel", '{"matrix": [[0.5, 0.6], [0.5, 0.5]]}'])
    assert code == 2
    assert err == "error: row 0 sums to 1.1, not 1 within 1e-09\n"


def test_unallocatable_grid_exits_2(run_cli):
    # 10^15 grid points ask numpy for 7.1 PiB, which the allocator refuses
    # at once, without touching memory
    code, out, err = run_cli(["c-of-m", "--family", "binary", "--delta1", "0.3",
                              "--delta2", "0.6", "--grid-points", "1000000000000000"])
    assert (code, out) == (2, "")
    assert err.startswith("error: out of memory: ") and err.count("\n") == 1


NEAR_IDENTITY = ["--family", "potts", "--q", "2", "--beta", "20"]


def _quiet_run(run_cli, argv):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        result = run_cli(argv)
    assert caught == []
    return result


@pytest.mark.parametrize("argv", [
    ["c-of-m", *NEAR_IDENTITY, "--format", "json"],
    ["verify", *NEAR_IDENTITY, "--tree", "regular:d=2", "--depth", "3",
     "--suite", "lemma1"],
])
def test_near_identity_channel_resolves(run_cli, argv):
    # At beta = 20 the off-diagonal entry is ~4e-18; the stationary solve
    # still resolves alpha = (1/2, 1/2), so c is the Ising closed form and
    # the Lemma 1 checks hold.
    code, out, err = _quiet_run(run_cli, argv)
    assert code == 0 and err == ""
    result = json.loads(out)
    if argv[0] == "c-of-m":
        assert abs(result["value"] - math.tanh(20.0) ** 2) <= 1e-6
    else:
        assert result["ok"] is True


@pytest.mark.parametrize("beta", [40, 100, 350])
def test_lemma1_near_identity_resolves_or_exits_3(run_cli, beta):
    # Past beta ~ 50 some boundary laws of the depth-3 tree underflow to 0,
    # which once printed "lemma1_diff": NaN after an invalid-divide warning.
    argv = ["verify", "--family", "potts", "--q", "2", "--beta", str(beta),
            "--tree", "regular:d=2", "--depth", "3", "--suite", "lemma1"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(argv)
    if beta == 40:
        assert code == 0 and err == ""
        assert json.loads(out)["ok"] is True
    else:
        assert code == 3 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "underflowed" in err


def test_simulate_underflow_exits_3(run_cli):
    # At beta = 200 a root belief entry underflows to exact zero, whose
    # entropy would be infinite; the run ends in one error line, exit 3.
    code, out, err = run_cli(["simulate", "--family", "potts", "--q", "2",
                              "--beta", "200", "--tree", "regular:d=2",
                              "--depth", "3", "--samples", "50"])
    assert code == 3 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1
    assert "underflowed to exact zero" in err
    assert "Traceback" not in err


EXTREME_CHANNELS = {
    "potts3-beta20": ["--family", "potts", "--q", "3", "--beta", "20"],
    "subnormal-entries": ["--channel", '{"matrix": [[0.5, 0.5, 5e-324], '
                          '[1e-200, 0.5, 0.5], [0.5, 0.5, 5e-324]]}'],
    "subnormal-alpha": ["--channel", '{"matrix": [[0.001, 0.999], [5e-324, 1.0]]}'],
    "ill-conditioned-center": ["--channel", '{"matrix": [[1.0, 1e-170, 1e-28], '
                               '[1.0, 1e-23, 1e-80], [1.0, 1e-114, 1e-261]]}'],
}


@pytest.mark.parametrize("case", sorted(EXTREME_CHANNELS))
def test_extreme_channel_ends_cleanly(run_cli, case):
    # At the edge of double precision a channel ends in a result with
    # 0 <= c <= 1 or in exit 3 with one error line, and never warns.  The
    # near-center solve never divides by alpha, so a stationary law spanning
    # hundreds of decades must resolve.
    code, out, err = _quiet_run(run_cli, ["c-of-m", *EXTREME_CHANNELS[case],
                                          "--starts", "4", "--format", "json"])
    if case == "ill-conditioned-center":
        assert code == 0, err
    if code == 0:
        assert 0.0 <= json.loads(out)["value"] <= 1.0 and err == ""
    else:
        assert code == 3 and out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


def test_no_converged_start_exits_3(run_cli):
    # At 4 Newton iterations none of the 64 starts on the Potts q=3 matrix
    # converges; at 8 all but 15 do, and the report counts the 15 that
    # exhausted their budget.  Given as a raw matrix, the channel takes the
    # multistart search, not the lumped route of --family potts.
    matrix = json.dumps({"matrix": potts_channel(3, 0.8).matrix.tolist()})
    potts = ["c-of-m", "--channel", matrix, "--format", "json"]
    code, out, err = run_cli([*potts, "--max-iters", "4"])
    assert code == 3 and out == ""
    assert len(err.splitlines()) == 1 and err.startswith("error: ")
    assert "no optimizer start converged" in err
    code, out, err = run_cli([*potts, "--max-iters", "8"])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert (report["failed_starts"], report["iterations"], report["evaluations"]) == (15, 448, 551)


@pytest.mark.parametrize("q, beta", [("30", "2"), ("50", "0.5")])
def test_potts_at_large_q_takes_the_lumped_route(run_cli, q, beta):
    # The (q - 1)-dimensional search once exited 3 here, no start converging;
    # the lumped two-state chain has no starts to lose.
    potts = ["--family", "potts", "--q", q, "--beta", beta, "--format", "json"]
    code, out, err = run_cli(["c-of-m", *potts])
    assert code == 0 and err == ""
    report = json.loads(out)
    assert report["method"] == "lumped-grid-1d" and report["failed_starts"] == 0
    assert report["value"] > report["near_center_limit"]
    code, out, err = run_cli(["bounds", *potts, "--branching", "2"])
    assert code == 0 and err == ""
    assert json.loads(out)["reports"][0]["constants"]["fk"] == report["value"]


def test_bounds_fine_grid_near_alpha(run_cli):
    # The 100,001-point grid has a row within an ulp of alpha; fk must still
    # be c = (delta2 - delta1)^2, as on the default grid.
    code, out, _ = run_cli(["bounds", "--family", "binary", "--delta1", "0.41",
                            "--delta2", "0.59", "--grid-points", "100001",
                            "--branching", "20", "--format", "json"])
    assert code == 0
    report = json.loads(out)["reports"][0]
    assert abs(report["constants"]["fk"] - 0.18 ** 2) <= 1e-9
    assert report["verdicts"]["fk"] == "non-reconstruction proven"


def test_usage_failures_exit_64(run_cli):
    code, _, err = run_cli(["definitely-not-a-command"])
    assert code == 64
    assert "usage" in err
    code, _, err = run_cli([])
    assert code == 64
    assert "usage" in err
    code, _, err = run_cli(["c-of-m", "--format", "yaml"])
    assert code == 64
    # verify prints json or a table only
    code, _, err = run_cli(["verify", "--count", "1", "--format", "csv"])
    assert code == 64


def test_bounds_csv_verdicts(run_cli):
    code, out, _ = run_cli(["bounds", "--family", "binary", "--delta1", "0.3",
                            "--delta2", "0.1", "--branching", "17",
                            "--format", "csv", *QUICK])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "bound,constant,verdict"
    rows = {ln.split(",")[0]: ln.split(",", 2) for ln in lines[1:]}
    assert set(rows) == {"fk", "ks", "martin", "mp"}
    assert rows["fk"][2] == "non-reconstruction proven"
    assert abs(float(rows["fk"][1]) - 0.0579) <= 5e-4
    assert rows["ks"][1] == "0.0400"
    assert rows["ks"][2] == "inconclusive"
    assert rows["martin"][2] == "inconclusive"
    assert rows["mp"][2] == "inconclusive"


def test_bounds_spectral_verdict(run_cli):
    code, out, _ = run_cli(["bounds", "--family", "binary", "--delta1", "0.3",
                            "--delta2", "0.1", "--branching", "26",
                            "--format", "json", *QUICK])
    assert code == 0
    rep = json.loads(out)["reports"][0]
    assert rep["verdicts"]["ks"] == "reconstruction proven"
    assert rep["branching"] == 26.0


def test_bounds_multistate_drops_two_state_rows(run_cli):
    code, out, _ = run_cli(["bounds", "--family", "potts", "--q", "3",
                            "--beta", "0.8", "--branching", "2",
                            "--format", "csv", *QUICK])
    assert code == 0
    names = [ln.split(",")[0] for ln in out.splitlines()[1:]]
    assert names == ["fk", "ks"]
    code, out, _ = run_cli(["bounds", "--family", "potts", "--q", "3",
                            "--beta", "0.8", "--branching", "2",
                            "--format", "json", *QUICK])
    rep = json.loads(out)["reports"][0]
    assert rep["constants"]["martin"] is None
    assert rep["constants"]["mp"] is None
    assert set(rep["verdicts"]) == {"fk", "ks"}


def test_bounds_from_file_round_trip(run_cli, tmp_path):
    base = ["bounds", "--family", "binary", "--delta1", "0.3",
            "--delta2", "0.1", *QUICK]
    # without --branching the verdict cells are blank, read back as None
    for fmt, name, extra in (("json", "r.json", ["--branching", "17"]),
                             ("csv", "r.csv", ["--branching", "17"]),
                             ("csv", "blank.csv", [])):
        code, out, _ = run_cli([*base, *extra, "--format", fmt])
        assert code == 0
        if fmt == "csv":
            assert out.splitlines()[1].endswith(",") == (not extra)
        path = tmp_path / name
        path.write_text(out, encoding="utf-8")
        code, again, _ = run_cli(["bounds", "--from-file", str(path),
                                  "--format", fmt])
        assert code == 0
        assert again == out


def test_table1_csv(run_cli):
    code, out, _ = run_cli(["table1", "--delta2-list", "0.2,0.8",
                            "--format", "csv", *QUICK])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "delta2,ks,fk,martin,mp"
    assert len(lines) == 3
    first = dict(zip(lines[0].split(","), (float(x) for x in lines[1].split(","))))
    assert first["delta2"] == 0.2
    assert first["ks"] == 0.01
    assert abs(first["fk"] - 0.0125) <= 5e-4
    assert first["mp"] == 0.02
    second = [float(x) for x in lines[2].split(",")]
    assert second[0] == 0.8
    assert second[1] == 0.25


def test_table1_json_and_from_file(run_cli, tmp_path):
    args = ["table1", "--delta2-list", "0.5", "--format", "json", *QUICK]
    code, out, _ = run_cli(args)
    assert code == 0
    obj = json.loads(out)
    assert obj["command"] == "table1"
    assert obj["delta1"] == 0.3
    assert len(obj["reports"]) == 1
    assert abs(obj["reports"][0]["constants"]["ks"] - 0.04) <= 1e-12

    csv_code, csv_out, _ = run_cli(["table1", "--delta2-list", "0.1,0.5",
                                    "--format", "csv", *QUICK])
    assert csv_code == 0
    path = tmp_path / "table.csv"
    path.write_text(csv_out, encoding="utf-8")
    code, again, _ = run_cli(["table1", "--from-file", str(path),
                              "--format", "csv"])
    assert code == 0
    assert again == csv_out


def test_verify_suite_mode(run_cli):
    code, out, _ = run_cli(["verify", "--count", "5", "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "verify"
    assert report["ok"] is True
    assert report["count"] == 5
    assert "instances" not in report
    code, out, _ = run_cli(["verify", "--count", "3", "--format", "json",
                            "--verbose"])
    assert code == 0
    assert len(json.loads(out)["instances"]) == 3
    # the randomized suite always runs every check
    code, out, err = run_cli(["verify", "--count", "3", "--suite", "lemma1"])
    assert code == 2
    assert out == ""
    assert "error:" in err


def test_suite_size_has_one_source():
    args = treerecon.cli._parser().parse_args(["verify"])
    assert args.count == SUITE_SIZE == 50
    for fn in (random_suite, run_suite):
        assert inspect.signature(fn).parameters["count"].default == SUITE_SIZE


def test_verify_instance_mode(run_cli):
    code, out, _ = run_cli(["verify", "--family", "potts", "--q", "3",
                            "--beta", "0.8", "--tree", "regular:d=2",
                            "--depth", "2", "--suite", "all",
                            "--format", "json", *QUICK])
    assert code == 0
    report = json.loads(out)
    assert report["ok"] is True
    checks = report["checks"]
    assert set(checks) == {"lemma1_diff", "recursion_diff",
                           "pointwise_violations", "max_pointwise_gap",
                           "propagation_diff", "lyapunov_margin", "bayes_diff",
                           "enumeration_diff"}
    # --suite all runs every gap check of the table
    assert {f"{check}_diff" for check in TOLERANCES} <= set(checks)
    assert checks["lyapunov_margin"] >= -LYAPUNOV_MARGIN_TOL

    code, out, _ = run_cli(["verify", "--family", "binary", "--delta1", "0.3",
                            "--delta2", "0.1", "--tree", "regular:d=2",
                            "--depth", "2", "--suite", "recursion",
                            "--format", "json"])
    assert code == 0
    checks = json.loads(out)["checks"]
    assert set(checks) == {"recursion_diff", "pointwise_violations",
                           "max_pointwise_gap"}

    code, _, err = run_cli(["verify", "--family", "binary", "--delta1", "0.3",
                            "--delta2", "0.1", "--suite", "recursion"])
    assert code == 2
    assert "error:" in err


def test_simulate_single_depth(run_cli):
    code, out, _ = run_cli(["simulate", "--family", "binary",
                            "--delta1", "0.3", "--delta2", "0.1",
                            "--tree", "regular:d=2", "--depth", "3",
                            "--samples", "500", "--seed", "3",
                            "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["command"] == "simulate"
    assert report["mode"] == "annealed"
    assert report["samples"] == 500
    (row,) = report["results"]
    assert row["depth"] == 3
    assert row["samples"] == 500
    assert row["mean_L"] > 0
    assert row["stderr"] > 0


def test_simulate_sweep_csv(run_cli):
    code, out, _ = run_cli(["simulate", "--family", "potts", "--q", "2",
                            "--beta", "0.5", "--tree", "regular:d=2",
                            "--depth-sweep", "2..4", "--samples", "300",
                            "--format", "csv"])
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "depth,mean_L,stderr,samples"
    assert len(lines) == 4
    depths = [int(ln.split(",")[0]) for ln in lines[1:]]
    assert depths == [2, 3, 4]
    for ln in lines[1:]:
        _, mean, stderr, samples = ln.split(",")
        assert float(mean) >= 0.0
        assert float(stderr) >= 0.0
        assert int(samples) == 300


def test_simulate_quenched_offspring_tree(run_cli):
    code, out, _ = run_cli(["simulate", "--family", "binary",
                            "--delta1", "0.3", "--delta2", "0.1",
                            "--tree", "gw:pmf=0.5,0.5", "--depth", "2",
                            "--mode", "quenched", "--samples", "200",
                            "--format", "json"])
    assert code == 0
    report = json.loads(out)
    assert report["mode"] == "quenched"
    assert report["tree"] == "gw:pmf=0.5,0.5"


def test_simulate_from_file_round_trip(run_cli, tmp_path):
    base = ["simulate", "--family", "binary", "--delta1", "0.3",
            "--delta2", "0.1", "--tree", "regular:d=2",
            "--depth-sweep", "2..3", "--samples", "200"]
    for fmt, name in (("json", "s.json"), ("csv", "s.csv")):
        code, out, _ = run_cli([*base, "--format", fmt])
        assert code == 0
        path = tmp_path / name
        path.write_text(out, encoding="utf-8")
        code, again, _ = run_cli(["simulate", "--from-file", str(path),
                                  "--format", fmt])
        assert code == 0
        assert again == out


def test_simulate_bad_inputs(run_cli, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"command": "simulate"}', encoding="utf-8")
    cases = [
        ["simulate", "--from-file", str(bad)],
        ["simulate", "--family", "binary", "--delta1", "0.3",
         "--delta2", "0.1", "--tree", "ladder:d=2", "--depth", "2"],
        ["simulate", "--family", "binary", "--delta1", "0.3",
         "--delta2", "0.1", "--tree", "regular:x=2", "--depth", "2"],
        ["simulate", "--family", "binary", "--delta1", "0.3",
         "--delta2", "0.1", "--tree", "gw:foo=1", "--depth", "2"],
        ["simulate", "--family", "binary", "--delta1", "0.3",
         "--delta2", "0.1", "--tree", "regular:d=2", "--depth-sweep", "5"],
        ["simulate", "--family", "binary", "--delta1", "0.3",
         "--delta2", "0.1", "--tree", "regular:d=2", "--depth-sweep", "3..2"],
        ["simulate", "--family", "binary", "--delta1", "0.3",
         "--delta2", "0.1", "--tree", "regular:d=2"],
        ["simulate", "--family", "binary", "--delta1", "0.3",
         "--delta2", "0.1", "--depth", "2"],
    ]
    for argv in cases:
        code, _, err = run_cli(argv)
        assert code == 2, argv
        assert "error:" in err


FROM_FILE_LIVE = {
    "bounds": ["bounds", "--family", "binary", "--delta1", "0.3",
               "--delta2", "0.1", "--branching", "17", *QUICK],
    "table1": ["table1", "--delta2-list", "0.2,0.8", "--branching", "17",
               *QUICK],
    "simulate": ["simulate", "--family", "potts", "--q", "3", "--beta", "0.8",
                 "--tree", "gw:pmf=0.5,0.5", "--depth-sweep", "2..3",
                 "--samples", "100"],
}


@pytest.mark.parametrize("command", sorted(FROM_FILE_LIVE))
def test_from_file_json_renders_like_live(run_cli, tmp_path, command):
    live = {}
    for fmt in ("json", "csv", "table"):
        code, live[fmt], _ = run_cli([*FROM_FILE_LIVE[command], "--format", fmt])
        assert code == 0
    path = tmp_path / "report.json"
    path.write_text(live["json"], encoding="utf-8")
    for fmt in ("json", "csv", "table"):
        code, out, _ = run_cli([command, "--from-file", str(path),
                                "--format", fmt])
        assert code == 0
        assert out == live[fmt], fmt


BOUNDS_LACKING_CONSTANTS = {"command": "bounds", "reports": [
    {"channel": "matrix", "branching": 2.0, "verdicts": {}}]}
BOUNDS_STRING_BRANCHING = {"command": "bounds", "reports": [
    {"channel": "matrix", "branching": "2", "verdicts": {},
     "constants": {"fk": 0.1, "ks": 0.1, "martin": None, "mp": None}}]}
# case -> (command, file text, format, a fragment of the one-line error)
BAD_FROM_FILE = {
    "reports-not-a-list": ("bounds", '{"reports": 5}', "json", "lacks 'command'"),
    "results-of-numbers": ("simulate", '{"results": [1]}', "csv", "lacks 'command'"),
    "command-reports-not-a-list": ("bounds", '{"command": "bounds", "reports": 5}',
                                   "json", "report.reports must be a list"),
    "command-report-not-an-object": ("bounds", '{"command": "bounds", "reports": [5]}',
                                     "table", "report.reports[0] must be an object"),
    "branching-a-string": ("bounds", json.dumps(BOUNDS_STRING_BRANCHING), "csv",
                           "report.reports[0].branching has type str"),
    "no-reports-key": ("bounds", '{"nope": 1}', "table", "lacks 'command'"),
    "command-no-reports-key": ("bounds", '{"command": "bounds", "nope": 1}', "table",
                               "report lacks 'reports'"),
    "empty-constants": ("table1", '{"command": "table1", "reports": '
                                  '[{"delta2": 0.2, "constants": {}}]}', "csv",
                        "constants lacks 'fk'"),
    "lacks-constants": ("bounds", json.dumps(BOUNDS_LACKING_CONSTANTS), "table",
                        "lacks 'constants'"),
    "other-command": ("table1", '{"command": "simulate", "results": []}', "json",
                      "expected 'table1'"),
    "empty-file": ("table1", "", "csv", "expected a JSON report or the CSV header"),
    "wrong-header": ("table1", "a,b\n1,2\n", "table",
                     "expected a JSON report or the CSV header"),
    "short-row": ("simulate", "depth,mean_L,stderr,samples\n2,0.5,0.1\n", "json",
                  "CSV line 2 needs 4 fields"),
    "not-a-number": ("bounds", "bound,constant,verdict\nfk,high,\n", "csv",
                     "could not convert string to float"),
}


@pytest.mark.parametrize("case", sorted(BAD_FROM_FILE))
def test_from_file_bad_input_exits_2(run_cli, tmp_path, case):
    command, text, fmt, message = BAD_FROM_FILE[case]
    path = tmp_path / "report"
    path.write_text(text, encoding="utf-8")
    code, out, err = run_cli([command, "--from-file", str(path),
                              "--format", fmt])
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and err.count("\n") == 1
    assert message in err
