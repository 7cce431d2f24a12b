"""Summary statistics shared by the workloads and the result line."""

from __future__ import annotations

import statistics


def median(values) -> float:
    return float(statistics.median(values))


def spread(values) -> float | None:
    """Quartile distance over the median; the range for fewer than four samples."""
    values = list(values)
    if len(values) < 2:
        return None
    mid = median(values)
    if mid == 0.0:
        return None
    if len(values) < 4:
        return (max(values) - min(values)) / abs(mid)
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(mid)


def tail(values) -> dict | None:
    """The highest percentile with at least ten samples beyond it."""
    values = sorted(values)
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        beyond = len(values) * (1.0 - pct / 100.0)
        if beyond >= 10.0:
            index = min(len(values) - 1, int(len(values) * pct / 100.0))
            return {"percentile": pct, "value": values[index]}
    return None


def summary(values, unit: str) -> dict:
    """A metric's record entry: median, unit, sample count, spread and tail."""
    values = list(values)
    return {
        "value": median(values),
        "unit": unit,
        "count": len(values),
        "spread": spread(values),
        "tail": tail(values),
    }
