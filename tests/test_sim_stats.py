"""Tests for the streaming statistics helpers."""

import os
import statistics
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim import stats as stats_module
from repro.sim.stats import BatchMeans, TimeWeightedAverage, Welford, t_quantile


class TestWelford:
    def test_empty(self):
        w = Welford()
        assert w.mean == 0.0
        assert w.variance == 0.0
        assert w.count == 0

    def test_known_values(self):
        w = Welford()
        for v in (2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0):
            w.add(v)
        assert w.mean == pytest.approx(5.0)
        assert w.variance == pytest.approx(statistics.variance(
            [2, 4, 4, 4, 5, 5, 7, 9]))

    @given(st.lists(st.floats(min_value=-1e6, max_value=1e6), min_size=2,
                    max_size=200))
    @settings(max_examples=100)
    def test_matches_statistics_module(self, values):
        w = Welford()
        for v in values:
            w.add(v)
        assert w.mean == pytest.approx(statistics.fmean(values), abs=1e-6,
                                       rel=1e-9)
        assert w.variance == pytest.approx(statistics.variance(values),
                                           abs=1e-4, rel=1e-6)

    @given(st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1,
                    max_size=50),
           st.lists(st.floats(min_value=-1e4, max_value=1e4), min_size=1,
                    max_size=50))
    @settings(max_examples=100)
    def test_merge_equals_concatenation(self, xs, ys):
        a, b, c = Welford(), Welford(), Welford()
        for v in xs:
            a.add(v)
            c.add(v)
        for v in ys:
            b.add(v)
            c.add(v)
        merged = a.merge(b)
        assert merged.count == c.count
        assert merged.mean == pytest.approx(c.mean, abs=1e-7, rel=1e-9)
        assert merged.variance == pytest.approx(c.variance, abs=1e-5, rel=1e-6)

    def test_merge_with_empty(self):
        a = Welford()
        a.add(3.0)
        merged = a.merge(Welford())
        assert merged.mean == 3.0
        assert Welford().merge(Welford()).count == 0


class TestTimeWeightedAverage:
    def test_square_wave(self):
        s = TimeWeightedAverage()
        s.update(0.0, 1.0)
        s.update(4.0, 0.0)
        assert s.average(8.0) == pytest.approx(0.5)

    def test_pending_segment_counted(self):
        s = TimeWeightedAverage()
        s.update(0.0, 2.0)
        assert s.average(10.0) == pytest.approx(2.0)

    def test_reset(self):
        s = TimeWeightedAverage()
        s.update(0.0, 1.0)
        s.reset(10.0)
        s.update(10.0, 0.0)
        assert s.average(20.0) == pytest.approx(0.0)

    def test_zero_elapsed(self):
        assert TimeWeightedAverage().average(0.0) == 0.0

    def test_time_going_backwards_rejected(self):
        s = TimeWeightedAverage()
        s.update(5.0, 1.0)
        with pytest.raises(ValueError):
            s.update(4.0, 0.0)

    def test_current_value(self):
        s = TimeWeightedAverage()
        s.update(1.0, 7.0)
        assert s.current == 7.0


class TestBatchMeans:
    def test_mean(self):
        b = BatchMeans(n_batches=2)
        for v in (1.0, 2.0, 3.0, 4.0):
            b.add(v)
        assert b.mean == pytest.approx(2.5)
        assert b.batch_means() == [1.5, 3.5]

    def test_ci_zero_when_too_few(self):
        b = BatchMeans(n_batches=10)
        b.add(1.0)
        half, mean = b.confidence_interval()
        assert half == 0.0
        assert mean == 1.0

    def test_ci_shrinks_with_constant_data(self):
        b = BatchMeans(n_batches=5)
        for _ in range(100):
            b.add(3.0)
        half, mean = b.confidence_interval()
        assert mean == pytest.approx(3.0)
        assert half == pytest.approx(0.0, abs=1e-12)

    def test_ci_covers_true_mean_for_iid_noise(self):
        import numpy as np
        rng = np.random.default_rng(0)
        b = BatchMeans(n_batches=10)
        for v in rng.normal(5.0, 1.0, size=5000):
            b.add(float(v))
        half, mean = b.confidence_interval()
        assert abs(mean - 5.0) < 3 * half + 0.1
        assert half < 0.2

    def test_uneven_tail_dropped(self):
        b = BatchMeans(n_batches=3)
        for v in range(10):
            b.add(float(v))
        means = b.batch_means()
        assert len(means) == 3
        # batches of size 3: [0,1,2], [3,4,5], [6,7,8]
        assert means == [1.0, 4.0, 7.0]

    def test_count(self):
        b = BatchMeans()
        assert b.count == 0
        b.add(1.0)
        assert b.count == 1


class TestTQuantile:
    def test_table_is_bit_identical_to_scipy(self):
        from scipy import stats as scipy_stats

        table = stats_module._T_975
        assert len(table) == 128
        for df, value in enumerate(table, start=1):
            assert value == float(scipy_stats.t.ppf(0.975, df=df)), df
            assert t_quantile(0.975, df) == value
        # 95% two-sided is q = 0.975 exactly, as BatchMeans computes it
        assert 0.5 + 0.95 / 2.0 == 0.975

    def test_outside_the_table_falls_back_to_scipy(self):
        from scipy import stats as scipy_stats

        assert t_quantile(0.975, 200) == float(
            scipy_stats.t.ppf(0.975, df=200))
        assert t_quantile(0.95, 10) == float(scipy_stats.t.ppf(0.95, df=10))

    def test_cli_import_and_a_des_run_load_no_scipy(self):
        """Start-up and a 16-replication vector-DES run (the width every
        sweep worker runs) never import scipy."""
        script = (
            "import sys\n"
            "import repro.cli\n"
            "from repro.protocols.modifications import ProtocolSpec\n"
            "from repro.sim.config import SimulationConfig\n"
            "from repro.sim.vector import simulate_many\n"
            "from repro.workload.parameters import SharingLevel, "
            "appendix_a_workload\n"
            "config = SimulationConfig(n_processors=4, workload="
            "appendix_a_workload(SharingLevel.FIVE_PERCENT), "
            "protocol=ProtocolSpec(), measured_requests=400, "
            "warmup_requests=100)\n"
            "result = simulate_many(config, 16)\n"
            "assert result.speedup_band_halfwidth > 0.0\n"
            "assert result.aggregate().speedup_ci_halfwidth > 0.0\n"
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        out = subprocess.run([sys.executable, "-c", script], env=env,
                             capture_output=True, text=True, timeout=120,
                             check=True).stdout
        assert out.strip() == "[]"
