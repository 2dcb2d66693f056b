"""Golden CLI outputs: every command's stdout, byte for byte, in each format.

The files under tests/golden/ pin the exact reports under fixed seeds and
small optimizer budgets.  To regenerate them after an intended change of
output, run from the repository root:

    PYTHONPATH=src python3 tests/test_golden.py
"""

import contextlib
import io
import pathlib
import sys

import pytest

GOLDEN = pathlib.Path(__file__).with_name("golden")
QUICK = ["--starts", "8", "--grid-points", "50001"]

BINARY = ["--family", "binary", "--delta1", "0.3", "--delta2", "0.1"]
POTTS3 = ["--family", "potts", "--q", "3", "--beta", "0.8"]
ISING = ["--family", "potts", "--q", "2", "--beta", "0.5"]
ALL = ("json", "csv", "table")

# case name -> (argv without --format, formats)
CASES = {
    "c_of_m_ising": (["c-of-m", *ISING, *QUICK], ALL),
    "c_of_m_binary": (["c-of-m", *BINARY, *QUICK], ALL),
    "c_of_m_potts3": (["c-of-m", *POTTS3, *QUICK], ALL),
    "bounds_binary_d17": (["bounds", *BINARY, "--branching", "17", *QUICK], ALL),
    "bounds_potts3_d2": (["bounds", *POTTS3, "--branching", "2", *QUICK], ALL),
    "bounds_binary": (["bounds", *BINARY, *QUICK], ALL),
    "table1": (["table1", "--delta2-list", "0.2,0.8", *QUICK], ALL),
    "verify_suite": (["verify", "--count", "3", "--seed", "0"], ("json", "table")),
    "verify_potts3_all": (["verify", *POTTS3, "--tree", "regular:d=2",
                           "--depth", "2", "--suite", "all", *QUICK],
                          ("json", "table")),
    "verify_binary_recursion": (["verify", *BINARY, "--tree", "regular:d=2",
                                 "--depth", "2", "--suite", "recursion"],
                                ("json", "table")),
    "simulate_regular": (["simulate", *BINARY, "--tree", "regular:d=2",
                          "--depth-sweep", "2..3", "--samples", "300",
                          "--seed", "3"], ALL),
    "simulate_gw_annealed": (["simulate", *BINARY, "--tree", "gw:pmf=0.5,0.5",
                              "--depth-sweep", "2..3", "--samples", "200",
                              "--seed", "4"], ALL),
    "simulate_gw_quenched": (["simulate", *POTTS3, "--tree", "gw:pmf=0.5,0.5",
                              "--depth-sweep", "2..3", "--mode", "quenched",
                              "--samples", "300", "--seed", "5"], ALL),
}

PARAMS = [(name, fmt) for name, (_, formats) in CASES.items() for fmt in formats]


def _run(argv):
    from treerecon.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


@pytest.mark.parametrize("name,fmt", PARAMS, ids=[f"{n}-{f}" for n, f in PARAMS])
def test_golden_output(name, fmt):
    argv, _ = CASES[name]
    code, out = _run([*argv, "--format", fmt])
    assert code == 0
    assert out == (GOLDEN / f"{name}.{fmt}").read_text(encoding="utf-8")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    for name, fmt in PARAMS:
        code, out = _run([*CASES[name][0], "--format", fmt])
        if code != 0:
            sys.exit(f"{name} --format {fmt} exited {code}")
        (GOLDEN / f"{name}.{fmt}").write_text(out, encoding="utf-8")
        print(f"wrote {name}.{fmt}")
