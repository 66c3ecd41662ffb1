import math

import numpy as np
import pytest

from literal import bcg_classify, bcg_matrix, uniform_matrix
from strategyshift.errors import DomainError
from strategyshift.matrix import bcg_scale, classify

BCG = bcg_matrix()


class TestClassify:
    def test_uniform_origin_is_region_one(self):
        m = uniform_matrix(0.0, 0.0)
        assert classify(0.0, 0.0, m) == "I"

    def test_uniform_quadrants(self):
        m = uniform_matrix(2.0, 3.0)
        assert classify(5.0, 1.0, m) == "II"
        assert classify(5.0, 9.0, m) == "III"
        assert classify(1.0, 9.0, m) == "IV"

    def test_uniform_boundary_goes_low(self):
        m = uniform_matrix(2.0, 3.0)
        assert classify(2.0, 3.0, m) == "I"
        assert classify(2.0, 9.0, m) == "IV"
        assert classify(9.0, 3.0, m) == "II"

    @pytest.mark.parametrize("a, b", [
        (math.nan, 0.0), (0.0, math.nan), (math.inf, 5.0), (5.0, -math.inf),
    ])
    def test_non_finite_point_rejected(self, a, b):
        with pytest.raises(DomainError):
            classify(a, b, BCG)

    @pytest.mark.parametrize("share, growth", [
        (math.nan, 5.0), (math.inf, 5.0), (2.0, math.nan), (2.0, math.inf),
    ])
    def test_non_finite_position_rejected(self, share, growth):
        with pytest.raises(DomainError):
            bcg_classify(share, growth)

    def test_bcg_row_dependent(self):
        assert classify(5.0, 8.0, BCG) == "Cows"
        assert classify(10.0, 12.0, BCG) == "Question Marks"

    def test_partition_totality(self, rng):
        labels = set(BCG.labels)
        uniform = uniform_matrix(1.0, 2.0)
        points = rng.uniform(-50, 50, size=(10_000, 2))
        for a, b in points:
            assert classify(a, b, BCG) in labels
            assert classify(a, b, uniform) in {"I", "II", "III", "IV"}


class TestBcgScale:
    def test_unity_share_maps_to_zero(self):
        assert bcg_scale(1.0) == 0.0

    def test_competitive_boundary(self):
        assert abs(bcg_scale(1.5) - 17.6) <= 0.05

    def test_decade_symmetry(self):
        assert bcg_scale(10.0) == pytest.approx(100.0)
        assert bcg_scale(0.1) == pytest.approx(-100.0)

    def test_monotone(self):
        shares = np.logspace(-2, 2, 50)
        values = [bcg_scale(s) for s in shares]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_nonpositive_share_rejected(self):
        with pytest.raises(DomainError):
            bcg_scale(0.0)
        with pytest.raises(DomainError):
            bcg_scale(-2.0)


class TestBcgClassify:
    @pytest.mark.parametrize(
        "share,growth,label",
        [
            (0.8, 5.0, "Dogs"),
            (2.0, 15.0, "Stars"),
            (1.2, 12.0, "Question Marks"),
            (5.0, 8.0, "Cows"),
        ],
    )
    def test_quadrants(self, share, growth, label):
        assert bcg_classify(share, growth) == label

    def test_boundary_share_one_is_dogs(self):
        assert bcg_classify(1.0, 10.0) == "Dogs"
