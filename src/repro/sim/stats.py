"""Streaming statistics for the simulator.

Welford accumulators for sample means, time-weighted averages for
utilizations and queue lengths, and batch-means confidence intervals
for the steady-state estimates reported against the MVA.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

#: ``scipy.stats.t.ppf(0.975, df)`` for df = 1..128, written so each
#: literal round-trips to scipy's float exactly: the two-sided 95% CIs
#: of every DES run never need scipy, whose import costs about a second
#: in every CLI process and forked sweep worker.
_T_975 = (
    12.706204736174694, 4.302652729749462, 3.1824463052837078, 2.7764451051977934,
    2.5705818356363146, 2.4469118511449786, 2.364624251592784, 2.306004135204166,
    2.262157162798205, 2.228138851986274, 2.200985160091639, 2.1788128296672284,
    2.1603686564627913, 2.144786687917804, 2.131449545559776, 2.1199052992212546,
    2.1098155778333156, 2.1009220402410382, 2.0930240544083087, 2.085963447265864,
    2.0796138447276795, 2.0738730679040254, 2.0686576104190486, 2.0638985616280245,
    2.0595385527532972, 2.0555294386428735, 2.0518305164802846, 2.0484071417952454,
    2.045229642132703, 2.0422724563012378, 2.039513446396408, 2.0369333434601016,
    2.0345152974493383, 2.0322445093177186, 2.030107928250343, 2.0280940009804502,
    2.0261924630291093, 2.0243941639119694, 2.022690920036761, 2.021075390306273,
    2.019540970441376, 2.0180817028184443, 2.016692199227824, 2.0153675744437636,
    2.014103388880846, 2.012895598919429, 2.0117405137297655, 2.010634757624232,
    2.0095752371292392, 2.008559112100761, 2.007583770315836, 2.006646805061688,
    2.0057459953178687, 2.0048792881880564, 2.0040447832891455, 2.003240718847872,
    2.002465459291007, 2.0017174841452356, 2.000995378088267, 2.0002978220142604,
    1.999623584994939, 1.9989715170333788, 1.998340542520741, 1.997729654317693,
    1.9971379083920038, 1.9965644189523117, 1.996008354025296, 1.9954689314298435,
    1.9949454151072374, 1.994437111771186, 1.9939433678456255, 1.9934635666618719,
    1.992997125889855, 1.992543495180932, 1.9921021540022417, 1.9916726096446642,
    1.9912543953883846, 1.9908470688116906, 1.9904502102301285, 1.990063421254446,
    1.9896863234569029, 1.989318557136572, 1.9889597801751624, 1.9886096669757083,
    1.9882679074772216, 1.98793420623902, 1.9876082815890708, 1.9872898648311692,
    1.986978699506281, 1.9866745407037683, 1.9863771544186177, 1.98608631695113,
    1.9858018143458227, 1.985523441866604, 1.9852510035054978, 1.984984311522457,
    1.9847231860139845, 1.9844674545084815, 1.9842169515864174, 1.9839715185235518,
    1.983731002955606, 1.9834952585628793, 1.9832641447734565, 1.9830375264837259,
    1.9828152737950475, 1.9825972617655006, 1.9823833701756908, 1.982173483307727,
    1.9819674897364825, 1.981765282132372, 1.9815667570749007, 1.9813718148763053,
    1.981180359414661, 1.9809922979758567, 1.9808075411039094, 1.9806260024590894,
    1.9804475986834025, 1.980272249272974, 1.9800998764569397, 1.9799304050824402,
    1.9797637625053868, 1.9795998784866382, 1.9794386850933035, 1.9792801166048548,
    1.9791241094237977, 1.9789706019906281, 1.9788195347028539, 1.978670849837835,
)


def t_quantile(q: float, df: int) -> float:
    """Student-t quantile ``scipy.stats.t.ppf(q, df)``.

    ``q = 0.975`` with ``df <= 128`` (every 95% interval the simulator
    computes) is read from :data:`_T_975`, bit-identical to scipy;
    anything else imports ``scipy.stats`` on first use.
    """
    if q == 0.975 and 1 <= df <= len(_T_975):
        return _T_975[df - 1]
    from scipy import stats
    return float(stats.t.ppf(q, df=df))


class Welford:
    """Numerically stable streaming mean / variance."""

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def add(self, value: float) -> None:
        """Fold one sample into the running mean/variance."""
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    @property
    def mean(self) -> float:
        """Running mean (0.0 before the first sample)."""
        return self._mean if self.count else 0.0

    @property
    def variance(self) -> float:
        """Unbiased sample variance."""
        return self._m2 / (self.count - 1) if self.count > 1 else 0.0

    @property
    def stddev(self) -> float:
        """Running sample standard deviation (ddof=1)."""
        return math.sqrt(self.variance)

    def merge(self, other: "Welford") -> "Welford":
        """Combine two accumulators (parallel Welford)."""
        merged = Welford()
        n = self.count + other.count
        if n == 0:
            return merged
        delta = other.mean - self.mean
        merged.count = n
        merged._mean = self.mean + delta * other.count / n
        merged._m2 = (self._m2 + other._m2
                      + delta * delta * self.count * other.count / n)
        return merged


class TimeWeightedAverage:
    """Integral of a piecewise-constant signal divided by elapsed time.

    Used for utilizations (value in {0,1}) and queue lengths.
    """

    def __init__(self, start_time: float = 0.0, value: float = 0.0) -> None:
        self._last_time = start_time
        self._value = value
        self._integral = 0.0
        self._origin = start_time

    def update(self, now: float, value: float) -> None:
        """Record that the signal changes to ``value`` at ``now``."""
        if now < self._last_time - 1e-9:
            raise ValueError("time went backwards")
        self._integral += self._value * (now - self._last_time)
        self._last_time = max(now, self._last_time)
        self._value = value

    def reset(self, now: float) -> None:
        """Restart the integral (end of warm-up)."""
        self._integral = 0.0
        self._last_time = now
        self._origin = now

    def average(self, now: float) -> float:
        """Time-weighted mean of the tracked level."""
        elapsed = now - self._origin
        if elapsed <= 0.0:
            return 0.0
        pending = self._value * (now - self._last_time)
        return (self._integral + pending) / elapsed

    @property
    def current(self) -> float:
        """Level as of the last update."""
        return self._value


@dataclass
class BatchMeans:
    """Batch-means point estimate and confidence interval.

    Observations are appended in arrival order and split into
    ``n_batches`` equal batches; the CI treats batch means as i.i.d.
    normal (standard steady-state simulation practice).
    """

    n_batches: int = 10
    _values: list[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        """Append one observation to the current batch."""
        self._values.append(value)

    @property
    def count(self) -> int:
        """Observations folded in so far."""
        return len(self._values)

    @property
    def mean(self) -> float:
        """Grand mean over all observations."""
        return sum(self._values) / len(self._values) if self._values else 0.0

    def batch_means(self) -> list[float]:
        """Per-batch means for the completed batches."""
        n = len(self._values)
        if n < self.n_batches:
            return [sum(self._values) / n] if n else []
        size = n // self.n_batches
        return [
            sum(self._values[i * size:(i + 1) * size]) / size
            for i in range(self.n_batches)
        ]

    def confidence_interval(self, level: float = 0.95) -> tuple[float, float]:
        """(half-width, mean) CI from the batch means; half-width is 0
        when fewer than two batches exist."""
        means = self.batch_means()
        if len(means) < 2:
            return 0.0, self.mean
        k = len(means)
        grand = sum(means) / k
        var = sum((m - grand) ** 2 for m in means) / (k - 1)
        t_crit = t_quantile(0.5 + level / 2.0, k - 1)
        half = t_crit * math.sqrt(var / k)
        return half, grand
