import math

import pytest

from treerecon import (
    ChannelError,
    NonPositiveEntry,
    Verdict,
    binary_channel,
    bound_report,
    compute_c,
    fk_criterion,
    ks_constant,
    martin_constant,
    mp_constant,
    potts_channel,
    table1,
)


@pytest.fixture(scope="module")
def c_binary_value(binary_0301, quick_config):
    return compute_c(binary_0301, quick_config).value


def test_ks_constant(binary_0301):
    assert abs(ks_constant(binary_0301) - 0.04) <= 1e-12
    assert abs(ks_constant(binary_channel(0.3, 0.7)) - 0.16) <= 1e-12
    assert abs(ks_constant(binary_channel(0.2, 0.2))) <= 1e-12
    beta, q = 0.9, 4
    lam = math.expm1(2 * beta) / (math.exp(2 * beta) + q - 1)
    assert abs(ks_constant(potts_channel(q, beta)) - lam**2) <= 1e-10


def test_mp_constant():
    assert abs(mp_constant(0.3, 0.1) - 0.1) <= 1e-12
    assert abs(mp_constant(0.3, 0.9) - 0.45) <= 1e-12
    assert mp_constant(0.3, 0.3) == 0.0
    for bad in (0.0, 1.0, -0.5):
        with pytest.raises(NonPositiveEntry):
            mp_constant(bad, 0.5)
        with pytest.raises(NonPositiveEntry):
            mp_constant(0.5, bad)


def test_martin_constant():
    want = (math.sqrt(0.7 * 0.1) - math.sqrt(0.9 * 0.3)) ** 2
    assert abs(martin_constant(0.3, 0.1) - want) <= 1e-15
    assert abs(martin_constant(0.3, 0.1) - 0.065) <= 5e-4
    assert abs(martin_constant(0.3, 0.5) - 0.0417) <= 5e-5
    assert martin_constant(0.4, 0.4) == 0.0
    with pytest.raises(NonPositiveEntry):
        martin_constant(0.0, 0.5)


def test_state_complement_invariance(quick_config):
    # relabeling both states maps (d1, d2) to (1-d1, 1-d2) and leaves every
    # constant unchanged
    for d1, d2 in [(0.3, 0.1), (0.3, 0.9), (0.25, 0.6)]:
        assert abs(mp_constant(d1, d2) - mp_constant(1 - d1, 1 - d2)) <= 1e-12
        assert abs(martin_constant(d1, d2)
                   - martin_constant(1 - d1, 1 - d2)) <= 1e-12
        assert abs(ks_constant(binary_channel(d1, d2))
                   - ks_constant(binary_channel(1 - d1, 1 - d2))) <= 1e-12
    c = compute_c(binary_channel(0.3, 0.1), quick_config).value
    c_swapped = compute_c(binary_channel(0.7, 0.9), quick_config).value
    assert abs(c - c_swapped) <= 1e-6


def test_fk_criterion_verdicts(binary_0301, c_binary_value):
    proven = fk_criterion(binary_0301, 17, c_value=c_binary_value)
    assert proven.verdict is Verdict.NON_RECONSTRUCTION
    assert proven.margin > 0
    assert abs(proven.margin - (1 - 17 * c_binary_value)) <= 1e-15

    open_case = fk_criterion(binary_0301, 18, c_value=c_binary_value)
    assert open_case.verdict is Verdict.INCONCLUSIVE
    assert open_case.margin < 0

    for bad in (0.5, -2.0, math.nan, math.inf):
        with pytest.raises(ChannelError):
            fk_criterion(binary_0301, bad, c_value=c_binary_value)
        with pytest.raises(ChannelError):
            bound_report(binary_0301, bad)
        with pytest.raises(ChannelError):
            table1(0.3, branching=bad)


def test_fk_criterion_computes_c(binary_0301, quick_config):
    res = fk_criterion(binary_0301, 2, config=quick_config)
    assert res.verdict is Verdict.NON_RECONSTRUCTION


def test_verdicts_never_contradict(binary_0301, quick_config):
    # an upper-bound proof of non-reconstruction and the spectral proof of
    # reconstruction must never fire together; the branching values bracket
    # every threshold 1/constant of this channel
    for d in (1.0, 9.0, 10.0, 11.0, 15.0, 16.0, 17.0, 18.0, 25.0, 26.0):
        rep = bound_report(binary_0301, d, config=quick_config)
        nr = any(v == Verdict.NON_RECONSTRUCTION.value
                 for k, v in rep.verdicts.items() if k != "ks")
        rec = rep.verdicts["ks"] == Verdict.RECONSTRUCTION.value
        assert not (nr and rec)


def test_bound_report_binary(binary_0301, quick_config):
    rep = bound_report(binary_0301, 17.0, config=quick_config)
    assert rep.delta1 == 0.3
    assert rep.delta2 == 0.1
    assert rep.martin is not None and rep.mp is not None
    assert rep.verdicts["fk"] == "non-reconstruction proven"
    rep26 = bound_report(binary_0301, 26.0, config=quick_config)
    assert rep26.verdicts["ks"] == "reconstruction proven"


def test_bound_report_multistate(quick_config):
    rep = bound_report(potts_channel(3, 0.5), 2.0, config=quick_config)
    assert rep.martin is None and rep.mp is None
    assert rep.delta1 is None and rep.delta2 is None
    assert set(rep.verdicts) == {"fk", "ks"}


def test_bound_report_without_branching(binary_0301):
    rep = bound_report(binary_0301)
    assert rep.branching is None
    assert rep.verdicts == {}


def test_table_structure_and_ordering(quick_config):
    reports = table1(0.3, (0.1, 0.5, 0.7), config=quick_config)
    assert [r.delta2 for r in reports] == [0.1, 0.5, 0.7]
    for r in reports:
        # empirical ordering of this family
        assert r.ks <= r.fk + 1e-6
        assert r.fk <= r.martin + 1e-6
        assert r.martin <= r.mp + 1e-6
    # symmetric point: every bound collapses to the squared eigenvalue
    sym = reports[2]
    for value in (sym.ks, sym.fk, sym.martin, sym.mp):
        assert abs(value - 0.16) <= 1e-6

