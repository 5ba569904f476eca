"""Correctness checks every run applies to the program's answers.

Each check counts as one attempted operation of the run; a failed
check counts toward ``error_rate`` and makes the benchmark exit
nonzero.  Tolerances are the families' own guarantees at the accuracy
the benchmark configures:

- CountMin never underestimates, and its point error stays within
  ``eps * m`` for at least a ``1 - delta`` share of the queried items;
- CountSketch: point error within ``eps * ||f||_2`` for at least a
  ``1 - delta`` share;
- SampleAndHold (Theorem 1.1, ``p = 2``): the same bound, but the
  registry runs one repetition per level, so each item meets it with
  the theorem's constant probability 2/3 (``delta = 1/3``);
- CountMin-Morris: point error within ``eps * m`` plus three standard
  deviations of its Morris cells' multiplicative noise
  (``sqrt(a / 2) * f``), for that share;
- CountSketch ``F2`` within a factor ``1 +- eps`` of the exact moment;
- p-stable ``F1`` (Theorem 3.2): the theorem's ``1 +- eps`` holds only
  with constant probability (the registry sizes the sketch at
  ``4 / eps^2`` rows, with no ``log(1/delta)`` factor), so a single
  run misses it now and then and that miss is a note.  The check fails
  on an estimate a correct sketch gives with probability below
  :data:`STABLE_ALPHA` (:func:`check_stable_moment`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from common import Outcome

#: Failure probability the families are sized for (``for_accuracy``'s
#: default ``delta``).
DELTA = 0.05
#: Probability that a correct p-stable sketch's ``F1`` estimate falls
#: outside :func:`stable_median_interval`.
STABLE_ALPHA = 1e-4


@dataclass(frozen=True)
class PointBound:
    """A family's point-query guarantee."""

    epsilon: float
    #: ``"m"`` (additive ``eps * m``) or ``"l2"`` (``eps * ||f||_2``).
    scale: str
    never_under: bool = False
    #: Morris base ``a`` of approximate cells (0: exact cells).
    morris_a: float = 0.0
    #: Share of items allowed outside the bound.
    delta: float = DELTA

    def limit(self, length, l2: float, exact):
        """The error allowed after ``length`` updates on items whose
        exact frequencies are ``exact``."""
        additive = self.epsilon * (length if self.scale == "m" else l2)
        noise = 3.0 * np.sqrt(self.morris_a / 2.0) * np.asarray(exact)
        return additive + noise


def exact_moment(freq: np.ndarray, p: float) -> float:
    nonzero = freq[freq > 0].astype(np.float64)
    return float(np.sum(nonzero ** p))


def check_points(
    outcome: Outcome,
    family: str,
    items: np.ndarray,
    estimates: np.ndarray,
    exact: np.ndarray,
    bound: PointBound,
    length,
    l2: float = 0.0,
) -> np.ndarray:
    """Apply ``bound`` to point answers after ``length`` updates (one
    value, or one per answer); returns the relative errors of the
    answers whose exact frequency is nonzero."""
    estimates = np.asarray(estimates, dtype=np.float64)
    exact = np.asarray(exact, dtype=np.float64)
    error = np.abs(estimates - exact)
    limit = np.broadcast_to(bound.limit(length, l2, exact), error.shape)
    if bound.never_under:
        under = np.nonzero(estimates < exact)[0]
        outcome.check(
            len(under) == 0,
            f"{family}: underestimated {len(under)} of {len(items)} items"
            + (
                f" (item {int(items[under[0]])}: "
                f"{estimates[under[0]]} < {exact[under[0]]})"
                if len(under)
                else ""
            ),
        )
    # The guarantee is per item: an item asked about many times (hot
    # items are) counts once per distinct answer.
    distinct = np.unique(
        np.stack([np.asarray(items, dtype=np.float64), exact, estimates,
                  limit]),
        axis=1,
    )
    outside = np.abs(distinct[2] - distinct[1]) > distinct[3]
    share = float(np.mean(outside)) if len(error) else 0.0
    outcome.check(
        share <= bound.delta,
        f"{family}: {share:.3f} of distinct point answers off by more "
        f"than the {bound.epsilon} * {bound.scale} bound (allowed share "
        f"{bound.delta})",
    )
    seen = exact > 0
    return error[seen] / exact[seen]


def check_moment(
    outcome: Outcome,
    family: str,
    estimate: float,
    exact: float,
    epsilon: float,
    p: float,
) -> float:
    """``estimate`` within ``1 +- epsilon`` of ``exact``; returns the
    relative error."""
    relative = abs(estimate - exact) / exact
    outcome.check(
        relative <= epsilon,
        f"{family}: F{p:g} estimate {estimate:.1f} vs exact {exact:.1f} "
        f"(relative error {relative:.3f} > {epsilon})",
    )
    return relative


def _binomial_tail(trials: int, q: float, at_least: int) -> float:
    """``P(Binomial(trials, q) >= at_least)``."""
    return sum(
        math.comb(trials, i) * q**i * (1.0 - q) ** (trials - i)
        for i in range(at_least, trials + 1)
    )


def _crossing(f, low: float, high: float, target: float) -> float:
    """Where the monotone ``f`` crosses ``target`` in ``[low, high]``."""
    side = f(low) > target
    for _ in range(200):
        middle = (low + high) / 2
        if (f(middle) > target) == side:
            low = middle
        else:
            high = middle
    return (low + high) / 2


def stable_median_interval(rows: int,
                           alpha: float = STABLE_ALPHA) -> tuple[float, float]:
    """Where the median of ``rows`` absolute standard Cauchy variates
    falls, except with probability ``alpha`` (half on each side).

    Indyk's ``p = 1`` estimator is that median times ``F1``.  The median
    is below ``x`` only if at least half the rows are, and the number
    of rows below ``x`` is binomial with ``P(|C| < x) = 2 atan(x) / pi``
    (likewise above).
    """
    half = math.ceil(rows / 2)

    def below(x: float) -> float:
        return _binomial_tail(rows, 2.0 * math.atan(x) / math.pi, half)

    def above(x: float) -> float:
        return _binomial_tail(rows, 1.0 - 2.0 * math.atan(x) / math.pi, half)

    return (
        _crossing(below, 0.0, 1.0, alpha / 2),
        _crossing(above, 1.0, 1e9, alpha / 2),
    )


def check_stable_moment(
    outcome: Outcome,
    family: str,
    estimate: float,
    exact: float,
    epsilon: float,
    rows: int,
) -> float:
    """A p-stable ``F1`` estimate from ``rows`` rows: fails outside
    :func:`stable_median_interval`, notes a miss of ``1 +- epsilon``;
    returns the relative error."""
    ratio = estimate / exact
    low, high = stable_median_interval(rows)
    outcome.check(
        low <= ratio <= high,
        f"{family}: F1 estimate {estimate:.1f} vs exact {exact:.1f} "
        f"(ratio {ratio:.3f} outside [{low:.3f}, {high:.3f}], which a "
        f"correct {rows}-row sketch leaves with probability "
        f"{STABLE_ALPHA:g})",
    )
    relative = abs(ratio - 1.0)
    if relative > epsilon:
        outcome.notes.append(
            f"{family}: F1 estimate off by {relative:.3f}, outside "
            f"1 +- {epsilon}; the theorem allows that with constant "
            f"probability"
        )
    return relative
