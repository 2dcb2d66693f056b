"""Acceptance gate: one test per release criterion.

Each test name carries its criterion number; the terminal summary hook in
conftest prints a PASS/FAIL line per criterion at the end of the run.
"""

import json
import math

import numpy as np
import pytest

from treerecon import (
    TreeSpec,
    compute_c,
    depth_sweep,
    make_channel,
    permute_channel,
    potts_channel,
    run_suite,
    table1,
)

# frozen reference values for the delta1 = 0.3 family, delta2 ascending.
# The closed-form columns keep their published rounding as strings, so each
# cell is compared at the precision it was printed with; the variational
# column gets the looser +-0.0005 window because its reference values came
# out of a numerical search themselves (at delta2 = 0.6 the constant sits
# on a 4-decimal rounding boundary)
TABLE_REFERENCE = {
    0.1: ("0.04", "0.065", "0.1"),
    0.2: ("0.01", "0.0134", "0.02"),
    0.4: ("0.01", "0.0110", "0.0143"),
    0.5: ("0.04", "0.0417", "0.05"),
    0.6: ("0.09", "0.0910", "0.1"),
    0.7: ("0.16", "0.16", "0.16"),
    0.8: ("0.25", "0.2534", "0.28"),
    0.9: ("0.36", "0.3850", "0.45"),
}
FK_REFERENCE = (0.0579, 0.0125, 0.0107, 0.0413, 0.0907, 0.16, 0.2525, 0.3787)


def _printed_gap(value: float, text: str) -> bool:
    decimals = len(text.partition(".")[2])
    return abs(value - float(text)) <= 0.5 * 10.0 ** (-decimals)


@pytest.fixture(scope="module")
def suite_report():
    return run_suite(seed=0, count=50)


def test_criterion_1_ising_closed_form():
    for beta in (0.1, 0.5, 1.0, 2.0):
        result = compute_c(potts_channel(2, beta))
        assert abs(result.value - math.tanh(beta) ** 2) <= 1e-6, beta


def test_criterion_2_bound_table():
    reports = table1()
    assert len(reports) == 8
    for rep, fk_ref in zip(reports, FK_REFERENCE):
        assert abs(rep.fk - fk_ref) <= 0.0005, rep.delta2
        d1, d2 = rep.delta1, rep.delta2
        ks_form = (d2 - d1) ** 2
        martin_form = (math.sqrt((1 - d1) * d2) - math.sqrt((1 - d2) * d1)) ** 2
        mp_form = (d2 - d1) ** 2 / min(d1 + d2, 2 - d1 - d2)
        assert abs(rep.ks - ks_form) <= 5e-5
        assert abs(rep.martin - martin_form) <= 5e-5
        assert abs(rep.mp - mp_form) <= 5e-5
        ks_txt, martin_txt, mp_txt = TABLE_REFERENCE[d2]
        assert _printed_gap(rep.ks, ks_txt), (d2, "ks")
        assert _printed_gap(rep.martin, martin_txt), (d2, "martin")
        assert _printed_gap(rep.mp, mp_txt), (d2, "mp")


def test_criterion_3_recursion_in_expectation(suite_report):
    assert suite_report["count"] >= 50
    assert len(suite_report["instances"]) >= 50
    assert all(row["leaves"] <= 6 for row in suite_report["instances"])
    assert suite_report["max_recursion_diff"] <= 1e-10
    # the identity is an expectation identity only: at least one instance
    # must break it pointwise by a visible margin
    assert suite_report["witness_instances"] >= 1
    assert any(row["max_pointwise_gap"] > 1e-3
               for row in suite_report["instances"])


def test_criterion_4_support_identities(suite_report):
    assert suite_report["max_lemma1_diff"] <= 1e-10
    assert suite_report["max_propagation_diff"] <= 1e-12


def test_criterion_5_bayes_vs_recursion(suite_report):
    assert suite_report["max_bayes_diff"] <= 1e-12


def test_criterion_6_entropy_decay():
    depths = range(2, 9)
    low = depth_sweep(TreeSpec.regular(2, 2), potts_channel(2, 0.5), depths,
                      samples=10_000, seed=7)
    means = [e.mean for e in low]
    assert all(e.samples == 10_000 for e in low)
    assert all(later < earlier for earlier, later in zip(means, means[1:]))
    high = depth_sweep(TreeSpec.regular(2, 2), potts_channel(2, 1.2), depths,
                       samples=10_000, seed=7)
    assert all(e.mean > 0.01 for e in high)


def test_criterion_7_invariance_and_convexity(sym_channel_factory):
    channels = [
        (sym_channel_factory(np.random.default_rng(11), 2), (1, 0)),
        (sym_channel_factory(np.random.default_rng(12), 3), (2, 0, 1)),
        (potts_channel(3, 0.9), (1, 2, 0)),
    ]
    for ch, perm in channels:
        base = compute_c(ch).value
        shuffled = compute_c(permute_channel(ch, perm)).value
        assert abs(base - shuffled) <= 1e-6, ch.label

    pairs = [
        (potts_channel(3, 0.8), permute_channel(potts_channel(3, 0.8), (1, 2, 0))),
        (make_channel([[0.9, 0.1], [0.1, 0.9]]),
         make_channel([[0.6, 0.4], [0.4, 0.6]])),
    ]
    for first, second in pairs:
        c_first = compute_c(first).value
        c_second = compute_c(second).value
        for lam in (0.3, 0.5, 0.7):
            mix = make_channel(lam * first.matrix + (1 - lam) * second.matrix)
            c_mix = compute_c(mix).value
            assert c_mix <= lam * c_first + (1 - lam) * c_second + 1e-5


def test_criterion_8_thread_determinism(run_cli):
    commands = [
        ["c-of-m", "--family", "potts", "--q", "3", "--beta", "0.7",
         "--seed", "0", "--format", "json"],
        ["simulate", "--family", "potts", "--q", "2", "--beta", "0.5",
         "--tree", "regular:d=2", "--depth-sweep", "2..4",
         "--samples", "10000", "--seed", "7", "--format", "json"],
        ["verify", "--family", "potts", "--q", "3", "--beta", "0.8",
         "--tree", "regular:d=2", "--depth", "2", "--suite", "all",
         "--seed", "0", "--format", "json"],
    ]
    for argv in commands:
        outputs = set()
        for threads in ("0", "1", "1", "4", "8"):
            code, out, _ = run_cli([*argv, "--threads", threads])
            assert code == 0, (argv, threads)
            outputs.add(out)
        assert len(outputs) == 1, argv
