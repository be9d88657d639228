"""Latency and throughput metrics (paper, Section 7).

The paper reports, per configuration, the average latency ``L_avg``,
the maximum latency ``L_max``, and — for dynamic injection — the
effective injection rate ``I_r`` (successful injection attempts over
total attempts).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class LatencyStats:
    """Accumulates delivery latencies."""

    values: list[int] = field(default_factory=list)

    def record(self, latency: int) -> None:
        self.values.append(latency)

    def record_many(self, latencies: list[int]) -> None:
        """Record several latencies, in order."""
        self.values.extend(latencies)

    @property
    def count(self) -> int:
        return len(self.values)

    @property
    def mean(self) -> float:
        return float(np.mean(self.values)) if self.values else float("nan")

    @property
    def maximum(self) -> int:
        return max(self.values) if self.values else 0

    @property
    def minimum(self) -> int:
        return min(self.values) if self.values else 0

    def percentile(self, p: float) -> float:
        if not self.values:
            return float("nan")
        return float(np.percentile(self.values, p))

    def histogram(self, bins: int = 20) -> tuple[np.ndarray, np.ndarray]:
        if not self.values:
            # Empty runs (all packets dropped, zero injection) yield an
            # all-zero histogram over a nominal [0, 1] range instead of
            # whatever numpy's empty-input behavior of the day is.
            return np.zeros(bins, dtype=np.intp), np.linspace(0.0, 1.0, bins + 1)
        return np.histogram(np.asarray(self.values), bins=bins)


@dataclass
class SimulationResult:
    """Everything one simulation run reports.

    ``latency`` covers messages *injected* after the warm-up window;
    ``attempts``/``successes`` count post-warm-up injection attempts,
    giving the paper's effective injection rate.
    """

    algorithm: str
    topology: str
    pattern: str
    injection: str
    cycles: int
    injected: int
    delivered: int
    latency: LatencyStats
    attempts: int = 0
    successes: int = 0
    undelivered: int = 0
    occupancy: dict = field(default_factory=dict)
    seed: int | None = None
    #: Number of packets a fault watchdog classified as undeliverable
    #: (destination unreachable under the active fault set, or frozen
    #: inside a down node).  0 for healthy runs.
    undeliverable: int = 0
    #: Reason string when the run was stopped gracefully by an observer
    #: (see :class:`repro.sim.engine.SimulationHalt`); None otherwise.
    halt: str | None = None
    #: Summary dict produced by an attached
    #: :class:`repro.telemetry.TelemetryProbe` (hop split, link
    #: utilization, occupancy, latency histogram, fault epochs); None
    #: when the run was not instrumented.  Plain data, so results stay
    #: picklable for parallel sweeps.
    telemetry: dict | None = None

    @property
    def l_avg(self) -> float:
        """Paper's ``L_avg``."""
        return self.latency.mean

    @property
    def l_max(self) -> int:
        """Paper's ``L_max``."""
        return self.latency.maximum

    @property
    def injection_rate(self) -> float:
        """Paper's ``I_r`` as a fraction in [0, 1]."""
        if self.attempts == 0:
            return float("nan")
        return self.successes / self.attempts

    @property
    def throughput(self) -> float:
        """Delivered messages per node per cycle."""
        if self.cycles == 0:
            return 0.0
        return self.delivered / self.cycles

    @property
    def delivered_fraction(self) -> float:
        """Fraction of injected packets that reached their destination.

        1.0 for a healthy completed run; < 1.0 when packets were still
        in flight at the end of a fixed-duration run or when faults made
        some packets undeliverable.  Defined as 1.0 when nothing was
        injected (an empty run is vacuously complete).
        """
        if self.injected == 0:
            return 1.0
        return self.delivered / self.injected

    def row(self) -> dict:
        """Flat dict for table rendering."""
        out = {
            "algorithm": self.algorithm,
            "pattern": self.pattern,
            "L_avg": round(self.l_avg, 2),
            "L_max": self.l_max,
            "delivered": self.delivered,
            "delivered_frac": round(self.delivered_fraction, 4),
            "in_flight": self.undelivered,
            "cycles": self.cycles,
        }
        if self.undeliverable:
            out["undeliverable"] = self.undeliverable
        if self.attempts:
            out["I_r(%)"] = round(100.0 * self.injection_rate, 1)
        if self.telemetry:
            t = self.telemetry
            out["link_util"] = round(t["link_utilization"], 4)
            out["dyn_hops(%)"] = round(
                100.0 * t["hops"]["dynamic_fraction"], 1
            )
            occ = t["occupancy"]
            if occ["mean"] is not None:
                out["occ_mean"] = round(occ["mean"], 3)
                out["occ_peak"] = occ["peak"]
        return out
