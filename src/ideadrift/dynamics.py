"""Per-user eccentricity drift summaries: F-score and G-score.

For a user's time series of eccentricities, consecutive changes are combined
into a weighted mean magnitude (F) and a weighted mean signed change (G).
The default weighting divides the mean inter-post gap by each actual gap, so
changes that arrive quickly count for more; alternatives are pluggable.
"""

from __future__ import annotations

import math
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

from ._np import pairwise_sum
from .cloud import EccentricityRecord, iter_rows, non_negative_int, optional_float, write_rows
from .errors import DataFormatError, check_positive

DEFAULT_MIN_GAP_SECONDS = 1.0

WeightFn = Callable[[float, float], float]  # (gap, mean gap) -> weight

WEIGHTINGS: dict[str, WeightFn] = {
    "inverse-gap": lambda gap, mean_gap: mean_gap / gap,
    "proportional-gap": lambda gap, mean_gap: gap / mean_gap,
    "uniform": lambda gap, mean_gap: 1.0,
}


class UserDynamics(NamedTuple):
    user: str
    n: int
    f_ecc: float | None
    g_ecc: float | None
    f_self: float | None
    g_self: float | None
    mean_gap_seconds: float | None


DYNAMICS_FIELDS = UserDynamics._fields


def _check_settings(min_gap: float, weighting: str) -> None:
    check_positive("min_gap", min_gap)
    if weighting not in WEIGHTINGS:
        raise DataFormatError(f"unknown weighting {weighting!r}; "
                              f"expected one of {sorted(WEIGHTINGS)}")


def fg_scores(
    series: Sequence[tuple[float, float]],
    min_gap: float = DEFAULT_MIN_GAP_SECONDS,
    weighting: str = "inverse-gap",
) -> tuple[float, float] | None:
    """(F, G) for a time-sorted (t_seconds, eccentricity) series.

    With dE_k and dT_k the consecutive value changes and gaps (gaps clamped
    below by min_gap) and w_k the weights, F = sum(w|dE|)/sum(w) and
    G = sum(w dE)/sum(w). Returns None for series shorter than 2.
    """
    _check_settings(min_gap, weighting)
    scores = _scores(series, min_gap, weighting)
    return None if scores is None else scores[:2]


def _scores(series: Sequence[tuple[float, float]], min_gap: float,
            weighting: str) -> tuple[float, float, float] | None:
    """(F, G, mean clamped gap) of a (t, value) series, or None below 2
    points. Sums run in numpy's order (``pairwise_sum``), so that every bit
    is the one numpy gave."""
    if len(series) < 2:
        return None
    times = [float(t) for t, _ in series]
    values = [float(e) for _, e in series]
    gaps = [later - earlier for earlier, later in zip(times, times[1:])]
    if any(gap < 0 for gap in gaps):
        raise DataFormatError("series must be sorted by time")
    gaps = [max(gap, min_gap) for gap in gaps]
    mean_gap = pairwise_sum(gaps) / len(gaps)
    weight = WEIGHTINGS[weighting]
    weights = [weight(gap, mean_gap) for gap in gaps]
    deltas = [later - earlier for earlier, later in zip(values, values[1:])]
    total = pairwise_sum(weights)
    try:
        f = pairwise_sum([w * abs(d) for w, d in zip(weights, deltas)]) / total
        g = pairwise_sum([w * d for w, d in zip(weights, deltas)]) / total
    except ZeroDivisionError:  # every weight is 0 only when the mean gap overflows
        f = g = math.nan
    if not (math.isfinite(f) and math.isfinite(g)):
        raise OverflowError("an F- or G-score overflows float64")
    return f, g, mean_gap


def user_dynamics(
    records: Iterable[EccentricityRecord],
    min_gap: float = DEFAULT_MIN_GAP_SECONDS,
    weighting: str = "inverse-gap",
) -> list[UserDynamics]:
    """Per-user F/G-scores over the neighborhood and self eccentricity series.

    Only defined eccentricities enter a series; users with fewer than two
    defined points in a series get None for that (F, G) pair. Output is
    sorted by user id. ``min_gap`` and ``weighting`` are checked before any
    record is read, so a bad one raises DataFormatError even when no user
    has two points. ``records`` is read once and only each author's series
    is kept, so it may be a generator such as ``cloud.iter_rows``.
    """
    _check_settings(min_gap, weighting)
    # author -> (neighborhood points, self points), each (t, post id, value)
    series: dict[str, tuple[list, list]] = {}
    for r in records:
        ecc_pts, self_pts = series.setdefault(r.author, ([], []))
        if r.eccentricity is not None:
            ecc_pts.append((r.created_at, r.post_id, r.eccentricity))
        if r.self_eccentricity is not None:
            self_pts.append((r.created_at, r.post_id, r.self_eccentricity))

    out = []
    for user, (ecc_pts, self_pts) in sorted(series.items()):
        ecc_pts.sort()
        self_pts.sort()
        f_ecc, g_ecc, mean_gap = (_scores([(t, e) for t, _, e in ecc_pts], min_gap, weighting)
                                  or (None, None, None))
        f_self, g_self, _ = (_scores([(t, e) for t, _, e in self_pts], min_gap, weighting)
                             or (None, None, None))
        out.append(UserDynamics(user, len(ecc_pts), f_ecc, g_ecc, f_self, g_self, mean_gap))
    return out


def write_dynamics_csv(rows: Iterable[UserDynamics], path: str | Path) -> None:
    write_rows(path, DYNAMICS_FIELDS, rows)


def read_dynamics_csv(path: str | Path) -> list[UserDynamics]:
    return list(iter_rows(path, UserDynamics, (str, non_negative_int, *[optional_float] * 5)))
