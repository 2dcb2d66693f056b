"""Reconstruction-threshold bound constants and verdicts.

For a channel M and a tree of mean branching number d, each bound compares
d times a channel constant against 1:

  ks      second eigenvalue squared; d * ks > 1 proves reconstruction.
  fk      the variational constant c(M); d * fk < 1 proves non-reconstruction.
  martin  two-state channels only; d * martin <= 1 proves non-reconstruction.
  mp      two-state channels only; d * mp <= 1 proves non-reconstruction.

Verdicts are tri-state; bounds that do not apply are absent (None), not zero.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Sequence

from .channels import Channel, _check_deltas, binary_channel, second_eigenvalue
from .errors import ChannelError
from .variational import OptimizerConfig, compute_c


class Verdict(str, Enum):
    NON_RECONSTRUCTION = "non-reconstruction proven"
    RECONSTRUCTION = "reconstruction proven"
    INCONCLUSIVE = "inconclusive"


class FkResult(NamedTuple):
    verdict: Verdict
    margin: float


def ks_constant(channel: Channel) -> float:
    """Squared modulus of the second eigenvalue."""
    return second_eigenvalue(channel) ** 2


def mp_constant(delta1: float, delta2: float) -> float:
    """(delta2 - delta1)^2 / min(delta1 + delta2, 2 - delta1 - delta2)."""
    _check_deltas(delta1, delta2)
    return (delta2 - delta1) ** 2 / min(delta1 + delta2, 2.0 - delta1 - delta2)


def martin_constant(delta1: float, delta2: float) -> float:
    """(sqrt((1-delta1) delta2) - sqrt((1-delta2) delta1))^2."""
    _check_deltas(delta1, delta2)
    return (
        math.sqrt((1.0 - delta1) * delta2) - math.sqrt((1.0 - delta2) * delta1)
    ) ** 2


def _check_branching(branching: float) -> None:
    if not (math.isfinite(branching) and branching >= 1.0):
        raise ChannelError(f"branching number must be finite and >= 1, got {branching!r}")


def fk_criterion(channel: Channel, branching: float, *,
                 c_value: float | None = None,
                 config: OptimizerConfig | None = None) -> FkResult:
    """Non-reconstruction criterion branching * c(M) < 1 (strict).

    Returns the verdict and the margin 1 - branching * c(M); a positive
    margin proves non-reconstruction.
    """
    _check_branching(branching)
    c = compute_c(channel, config).value if c_value is None else float(c_value)
    margin = 1.0 - branching * c
    verdict = Verdict.NON_RECONSTRUCTION if margin > 0.0 else Verdict.INCONCLUSIVE
    return FkResult(verdict, margin)


@dataclass(frozen=True)
class BoundReport:
    channel_desc: str
    branching: float | None
    fk: float
    ks: float
    martin: float | None
    mp: float | None
    verdicts: dict
    delta1: float | None = None
    delta2: float | None = None


def _verdicts(fk: float, ks: float, martin: float | None, mp: float | None,
              branching: float | None) -> dict:
    if branching is None:
        return {}
    d = float(branching)
    out = {
        "fk": (Verdict.NON_RECONSTRUCTION if d * fk < 1.0 else Verdict.INCONCLUSIVE).value,
        "ks": (Verdict.RECONSTRUCTION if d * ks > 1.0 else Verdict.INCONCLUSIVE).value,
    }
    for name, value in (("martin", martin), ("mp", mp)):
        if value is not None:
            out[name] = (Verdict.NON_RECONSTRUCTION if d * value <= 1.0
                         else Verdict.INCONCLUSIVE).value
    return out


def bound_report(channel: Channel, branching: float | None = None, *,
                 config: OptimizerConfig | None = None) -> BoundReport:
    """All applicable bound constants for one channel, with verdicts when a
    branching number is given.  martin and mp require q = 2."""
    if branching is not None:
        _check_branching(branching)
    fk = compute_c(channel, config).value
    ks = ks_constant(channel)
    martin = mp = d1 = d2 = None
    if channel.q == 2:
        d1 = float(channel.matrix[0, 1])
        d2 = float(channel.matrix[1, 1])
        martin = martin_constant(d1, d2)
        mp = mp_constant(d1, d2)
    return BoundReport(
        channel_desc=channel.label or "matrix",
        branching=None if branching is None else float(branching),
        fk=fk,
        ks=ks,
        martin=martin,
        mp=mp,
        verdicts=_verdicts(fk, ks, martin, mp, branching),
        delta1=d1,
        delta2=d2,
    )


DELTA2_GRID = (0.1, 0.2, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9)


def table1(delta1: float = 0.3, delta2_list: Sequence[float] = DELTA2_GRID,
           branching: float | None = None,
           config: OptimizerConfig | None = None) -> list[BoundReport]:
    """Bound constants for the family of two-state channels with fixed delta1."""
    return [bound_report(binary_channel(delta1, d2), branching, config=config)
            for d2 in delta2_list]

