"""Per-user eccentricity drift summaries: F-score and G-score.

For a user's time series of eccentricities, consecutive changes are combined
into a weighted mean magnitude (F) and a weighted mean signed change (G).
The default weighting divides the mean inter-post gap by each actual gap, so
changes that arrive quickly count for more; alternatives are pluggable.
"""

from __future__ import annotations

import csv
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, Sequence

import numpy as np

from .cloud import EccentricityRecord, optional_float, read_rows
from .errors import DataFormatError

DEFAULT_MIN_GAP_SECONDS = 1.0

WeightFn = Callable[[np.ndarray, float], np.ndarray]

WEIGHTINGS: dict[str, WeightFn] = {
    "inverse-gap": lambda gaps, mean_gap: mean_gap / gaps,
    "proportional-gap": lambda gaps, mean_gap: gaps / mean_gap,
    "uniform": lambda gaps, mean_gap: np.ones_like(gaps),
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
    if min_gap <= 0:
        raise DataFormatError(f"min_gap must be positive, got {min_gap}")
    if weighting not in WEIGHTINGS:
        raise DataFormatError(f"unknown weighting {weighting!r}; "
                              f"expected one of {sorted(WEIGHTINGS)}")
    if len(series) < 2:
        return None
    times = np.asarray([t for t, _ in series], dtype=float)
    values = np.asarray([e for _, e in series], dtype=float)
    if np.any(np.diff(times) < 0):
        raise DataFormatError("series must be sorted by time")
    gaps = np.maximum(np.diff(times), min_gap)
    deltas = np.diff(values)
    weights = WEIGHTINGS[weighting](gaps, float(gaps.mean()))
    total = float(weights.sum())
    f = float(np.sum(weights * np.abs(deltas)) / total)
    g = float(np.sum(weights * deltas) / total)
    return f, g


def user_dynamics(
    records: Iterable[EccentricityRecord],
    min_gap: float = DEFAULT_MIN_GAP_SECONDS,
    weighting: str = "inverse-gap",
) -> list[UserDynamics]:
    """Per-user F/G-scores over the neighborhood and self eccentricity series.

    Only defined eccentricities enter a series; users with fewer than two
    defined points in a series get None for that (F, G) pair. Output is
    sorted by user id.
    """
    ecc_series: dict[str, list[tuple[int, str, float]]] = {}
    self_series: dict[str, list[tuple[int, str, float]]] = {}
    users: set[str] = set()
    for r in records:
        users.add(r.author)
        if r.eccentricity is not None:
            ecc_series.setdefault(r.author, []).append(
                (r.created_at, r.post_id, r.eccentricity))
        if r.self_eccentricity is not None:
            self_series.setdefault(r.author, []).append(
                (r.created_at, r.post_id, r.self_eccentricity))

    out = []
    for user in sorted(users):
        ecc_pts = sorted(ecc_series.get(user, ()))
        self_pts = sorted(self_series.get(user, ()))
        fg_ecc = fg_scores([(t, e) for t, _, e in ecc_pts], min_gap, weighting)
        fg_self = fg_scores([(t, e) for t, _, e in self_pts], min_gap, weighting)
        mean_gap = None
        if len(ecc_pts) >= 2:
            times = np.asarray([t for t, _, _ in ecc_pts], dtype=float)
            mean_gap = float(np.maximum(np.diff(times), min_gap).mean())
        out.append(UserDynamics(
            user=user,
            n=len(ecc_pts),
            f_ecc=fg_ecc[0] if fg_ecc else None,
            g_ecc=fg_ecc[1] if fg_ecc else None,
            f_self=fg_self[0] if fg_self else None,
            g_self=fg_self[1] if fg_self else None,
            mean_gap_seconds=mean_gap,
        ))
    return out


def write_dynamics_csv(rows: Iterable[UserDynamics], path: str | Path) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(DYNAMICS_FIELDS)
        writer.writerows(rows)


def read_dynamics_csv(path: str | Path) -> list[UserDynamics]:
    return read_rows(path, UserDynamics, (str, int, *[optional_float] * 5))
