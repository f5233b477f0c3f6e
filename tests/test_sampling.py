import math

import numpy as np
import pytest
import scipy.stats

from mcplab import (
    ColorSpec,
    OutOfUnitIntervalError,
    SampleParams,
    sample_graph,
    threshold_p,
)
from mcplab.errors import ValidationError
from mcplab.rng import derive_seed, stream_value, stream_values_np, stream_values_strided2


class TestThresholdP:
    def test_closed_form(self):
        assert threshold_p(1000, 2.0, 0.25) == pytest.approx(
            (math.log(1000) + 2.0) / 250.0
        )
        assert threshold_p(1000, 2.0, 0.25) == pytest.approx(0.0356310, abs=1e-6)

    def test_single_color(self):
        assert threshold_p(1000, 0.0, 1.0) == pytest.approx(0.0069078, abs=1e-6)

    def test_out_of_unit_interval(self):
        with pytest.raises(OutOfUnitIntervalError):
            threshold_p(2, 1000.0, 0.1)

    def test_small_n_rejected(self):
        with pytest.raises(ValidationError):
            threshold_p(1, 0.0, 0.5)

    @pytest.mark.parametrize("alpha_min", [0.0, -0.5, 1.5])
    def test_alpha_min_outside_unit_interval_rejected(self, alpha_min):
        with pytest.raises(ValidationError, match=rf"^alpha_min must be in \(0, 1\], got {alpha_min}$"):
            threshold_p(100, 0.0, alpha_min)


class TestStream:
    def test_vectorized_matches_scalar(self):
        idx = np.arange(500, dtype=np.uint64)
        vec = stream_values_np(99, idx)
        for i in (0, 1, 17, 499):
            assert int(vec[i]) == stream_value(99, i)

    def test_strided_matches_generic(self):
        a = stream_values_np(5, np.arange(300, dtype=np.uint64) * np.uint64(2))
        b = stream_values_strided2(5, 0, 300)
        assert (a == b).all()
        c = stream_values_strided2(5, 120, 50)
        assert (c == a[120:170]).all()

    def test_derive_seed_stable(self):
        assert derive_seed(7, 1, 2) == stream_value(stream_value(7, 1), 2)


class TestSampleGraph:
    def test_p_zero_edgeless(self):
        g = sample_graph(SampleParams(5, 0.0, ColorSpec.uniform(2), 3))
        assert g.edge_count == 0

    def test_p_one_complete_single_color(self):
        g = sample_graph(SampleParams(3, 1.0, ColorSpec.uniform(1), 3))
        assert g.edge_count == 9
        assert all(c == 1 for _, _, c in g.edges())

    def test_determinism(self):
        params = SampleParams(40, 0.15, ColorSpec(2, (0.7, 0.3)), 123)
        assert sample_graph(params) == sample_graph(params)

    def test_seed_changes_graph(self):
        cs = ColorSpec.uniform(2)
        g1 = sample_graph(SampleParams(40, 0.15, cs, 1))
        g2 = sample_graph(SampleParams(40, 0.15, cs, 2))
        assert g1 != g2

    # n = 300 has 90,000 slots, so the inclusion scan crosses a chunk boundary.
    @pytest.mark.parametrize("n", [13, 300], ids=["n13", "n300"])
    def test_draw_order_contract(self, n):
        # Independent scalar re-derivation of the documented construction:
        # edge (a, b) owns stream slots 2*(a*n+b) and 2*(a*n+b)+1.
        p, seed = 0.35, 77
        alphas = (0.2, 0.5, 0.3)
        cum = [0.2, 0.7, 1.0]
        expected = []
        threshold = int(p * 2**64)
        for a in range(n):
            for b in range(n):
                e = a * n + b
                if stream_value(seed, 2 * e) < threshold:
                    u = stream_value(seed, 2 * e + 1) / 2.0**64
                    color = 1
                    while u >= cum[color - 1]:
                        color += 1
                    expected.append((a, b, color))
        g = sample_graph(SampleParams(n, p, ColorSpec(3, alphas), seed))
        assert list(g.edges()) == expected

    def test_edge_count_moments(self):
        # Binomial oracle: mean over 1000 seeds within 3 sigma of n^2 p.
        n, p = 200, 0.1
        cs = ColorSpec.uniform(2)
        counts = [
            sample_graph(SampleParams(n, p, cs, seed)).edge_count
            for seed in range(1000)
        ]
        mean = sum(counts) / len(counts)
        sigma = math.sqrt(n * n * p * (1 - p))
        assert abs(mean - n * n * p) <= 3 * sigma

    def test_color_frequencies_chi_square(self):
        # Goodness of fit at significance 0.001 on >= 1e5 included edges.
        alphas = (0.5, 0.25, 0.25)
        g = sample_graph(SampleParams(400, 0.7, ColorSpec(3, alphas), 2024))
        counts = [0, 0, 0]
        for _, _, c in g.edges():
            counts[c - 1] += 1
        total = sum(counts)
        assert total >= 100_000
        stat = sum(
            (counts[i] - total * alphas[i]) ** 2 / (total * alphas[i])
            for i in range(3)
        )
        critical = scipy.stats.chi2.ppf(1 - 0.001, df=2)
        assert stat < critical

    def test_invalid_params(self):
        with pytest.raises(ValidationError):
            SampleParams(0, 0.5, ColorSpec.uniform(2), 1)
        with pytest.raises(ValidationError):
            SampleParams(5, 1.5, ColorSpec.uniform(2), 1)

    def test_alphas_embedded(self):
        g = sample_graph(SampleParams(5, 0.5, ColorSpec(2, (0.6, 0.4)), 11))
        assert g.alphas == (0.6, 0.4)
