import numpy as np
import pytest
from hypothesis import given, strategies as st

from ideadrift.cloud import EccentricityRecord
from ideadrift.dynamics import (
    DYNAMICS_FIELDS, fg_scores, read_dynamics_csv, user_dynamics, write_dynamics_csv,
)
from ideadrift.errors import DataFormatError

DAY = 86400.0


def series(values, gap=DAY):
    return [(k * gap, v) for k, v in enumerate(values)]


class TestFgScores:
    def test_constant_series(self):
        assert fg_scores(series([5.0, 5.0, 5.0])) == (0.0, 0.0)

    def test_steady_increase(self):
        f, g = fg_scores(series([0.0, 1.0, 2.0]))
        assert f == pytest.approx(1.0)
        assert g == pytest.approx(1.0)

    def test_up_then_down(self):
        f, g = fg_scores(series([0.0, 1.0, 0.0]))
        assert f == pytest.approx(1.0)
        assert g == pytest.approx(0.0, abs=1e-15)

    def test_too_short(self):
        assert fg_scores([(0.0, 1.0)]) is None
        assert fg_scores([]) is None

    def test_min_gap_clamps_same_second_posts(self):
        f, g = fg_scores([(0.0, 0.0), (0.0, 4.0), (DAY, 4.0)], min_gap=1.0)
        assert np.isfinite(f) and np.isfinite(g)
        # the clamped 1-second gap dominates the inverse-gap weights
        assert f == pytest.approx(4.0, rel=1e-4)

    def test_unsorted_rejected(self):
        with pytest.raises(DataFormatError):
            fg_scores([(10.0, 1.0), (0.0, 2.0)])

    def test_unknown_weighting_rejected(self):
        with pytest.raises(DataFormatError):
            fg_scores(series([1.0, 2.0]), weighting="quadratic")

    @pytest.mark.parametrize("weighting", ["inverse-gap", "proportional-gap",
                                           "uniform"])
    def test_weightings_agree_on_equal_gaps(self, weighting):
        values = [3.0, 1.0, 4.0, 1.0, 5.0]
        f, g = fg_scores(series(values), weighting=weighting)
        deltas = np.diff(values)
        assert f == pytest.approx(np.abs(deltas).mean())
        assert g == pytest.approx(deltas.mean())

    def test_uniform_weighting_telescopes(self):
        rng = np.random.default_rng(1)
        times = np.cumsum(rng.integers(1, 10_000, size=12)).astype(float)
        values = rng.normal(0, 2, size=12)
        _, g = fg_scores(list(zip(times, values)), weighting="uniform")
        assert g == pytest.approx((values[-1] - values[0]) / 11)


@given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=2,
                max_size=20),
       st.integers(min_value=1, max_value=5))
def test_abs_g_never_exceeds_f(values, gap_days):
    f, g = fg_scores(series(values, gap=gap_days * DAY))
    assert abs(g) <= f + 1e-12
    if f == 0.0:
        assert g == 0.0


@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2,
                max_size=15))
def test_value_reversal_on_equal_gaps_negates_g(values):
    f1, g1 = fg_scores(series(values))
    f2, g2 = fg_scores(series(values[::-1]))
    assert f2 == pytest.approx(f1, abs=1e-12)
    assert g2 == pytest.approx(-g1, abs=1e-12)


@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2,
                max_size=15),
       st.floats(min_value=-20.0, max_value=20.0))
def test_constant_shift_leaves_scores_unchanged(values, shift):
    f1, g1 = fg_scores(series(values))
    f2, g2 = fg_scores(series([v + shift for v in values]))
    assert f2 == pytest.approx(f1, abs=1e-10)
    assert g2 == pytest.approx(g1, abs=1e-10)


@given(st.lists(st.floats(min_value=0.0, max_value=50.0), min_size=2,
                max_size=15),
       st.floats(min_value=0.01, max_value=50.0))
def test_positive_scaling_scales_scores(values, scale):
    f1, g1 = fg_scores(series(values))
    f2, g2 = fg_scores(series([v * scale for v in values]))
    assert f2 == pytest.approx(scale * f1, rel=1e-12, abs=1e-12)
    assert g2 == pytest.approx(scale * g1, rel=1e-12, abs=1e-12)


def record(post_id, author, t, ecc, self_ecc):
    return EccentricityRecord(post_id=post_id, author=author, created_at=int(t),
                              likes=0, eccentricity=ecc, self_eccentricity=self_ecc,
                              cloud_size=0 if ecc is None else 1,
                              self_cloud_size=0 if self_ecc is None else 1)


class TestUserDynamics:
    def test_single_defined_point_gives_undefined_scores(self):
        rows = user_dynamics([record("p1", "u", 0, 1.0, None),
                              record("p2", "u", DAY, None, None)])
        (row,) = rows
        assert row.n == 1
        assert row.f_ecc is None and row.g_ecc is None

    def test_all_undefined_self_series(self):
        rows = user_dynamics([record("p1", "u", 0, 1.0, None),
                              record("p2", "u", DAY, 2.0, None)])
        (row,) = rows
        assert row.f_ecc is not None
        assert row.f_self is None and row.g_self is None

    def test_undefined_points_skipped_not_interpolated(self):
        rows = user_dynamics([record("p1", "u", 0, 0.0, None),
                              record("p2", "u", DAY, None, None),
                              record("p3", "u", 2 * DAY, 2.0, None)])
        (row,) = rows
        # one 2-day gap, change of 2
        assert row.f_ecc == pytest.approx(1.0 * 2)
        assert row.mean_gap_seconds == pytest.approx(2 * DAY)

    def test_value_reversal_negates_g_per_user(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0, 5, 9)
        fwd = [record(f"p{i}", "u", i * DAY, v, None)
               for i, v in enumerate(values)]
        rev = [record(f"p{i}", "u", i * DAY, v, None)
               for i, v in enumerate(values[::-1])]
        (a,) = user_dynamics(fwd)
        (b,) = user_dynamics(rev)
        assert b.f_ecc == pytest.approx(a.f_ecc, abs=1e-12)
        assert b.g_ecc == pytest.approx(-a.g_ecc, abs=1e-12)

    def test_users_sorted_in_output(self):
        rows = user_dynamics([record("p1", "zed", 0, 1.0, None),
                              record("p2", "ann", 0, 1.0, None)])
        assert [r.user for r in rows] == ["ann", "zed"]

    def test_csv_roundtrip(self, tmp_path):
        rows = user_dynamics([record("p1", "u", 0, 1.0, 0.5),
                              record("p2", "u", DAY, 2.0, 1.5),
                              record("p3", "v", 0, 3.0, None)])
        path = tmp_path / "dynamics.csv"
        write_dynamics_csv(rows, path)
        assert read_dynamics_csv(path) == rows

    @pytest.mark.parametrize("row", [
        "v,notanint,,,,,",         # bad int
        "v,2,notafloat,,,,86400",  # bad float
        "v",                       # short row
        "v,2,,,,,86400,x,y",       # extra fields
    ], ids=["bad-int", "bad-float", "short-row", "extra-fields"])
    def test_bad_csv_row_names_file_and_line(self, tmp_path, row):
        path = tmp_path / "dynamics.csv"
        path.write_text(",".join(DYNAMICS_FIELDS) + "\nu,1,,,,,\n" + row + "\n")
        with pytest.raises(DataFormatError, match=f"{path}:3:"):
            read_dynamics_csv(path)
