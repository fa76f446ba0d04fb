"""Downlink budget simulation for confidence-filtered onboard inference.

Samples whose onboard confidence falls strictly below the threshold are
transmitted and reclassified by the ground model; everything else keeps
the onboard prediction. Volumes use decimal units (1 KB = 10^3 B,
1 MB = 10^6 B).
"""
from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

from .executor import InferenceRecord
from .model_io import decode, read_json


class DownlinkError(ValueError):
    pass


@dataclass
class LinkBudget:
    name: str
    data_rate_bps: float
    passes_per_day: int
    pass_duration_s: float

    def __post_init__(self) -> None:
        if self.data_rate_bps <= 0 or self.passes_per_day <= 0 or self.pass_duration_s <= 0:
            raise DownlinkError(f"link budget {self.name}: all fields must be positive")

    @property
    def daily_budget_bytes(self) -> float:
        """Bytes transmittable per day: rate * duration * passes / 8."""
        return self.data_rate_bps * self.pass_duration_s * self.passes_per_day / 8.0

    @classmethod
    def load(cls, path: str | Path) -> "LinkBudget":
        """A link budget file (`model_io.decode`); DownlinkError names the
        file and a missing, unknown or wrong-typed key."""
        return decode(cls, read_json(path, DownlinkError), f"link budget {path}", DownlinkError)


@dataclass
class DownlinkScenario:
    bytes_per_sample: float
    threshold: float
    onboard_records: Sequence[InferenceRecord]
    ground_records: Sequence[InferenceRecord] | None = None

    def __post_init__(self) -> None:
        if not 0.0 < self.threshold <= 1.0:
            raise DownlinkError(f"threshold {self.threshold} outside (0, 1]")
        if not 0.0 < self.bytes_per_sample < math.inf:
            raise DownlinkError(
                f"bytes_per_sample {self.bytes_per_sample} must be finite and > 0")
        # Records are matched by sample id, so each id may occur once per side.
        for side, records in (("onboard", self.onboard_records),
                              ("ground", self.ground_records or ())):
            repeated = [sid for sid, n in Counter(r.sample_id for r in records).items() if n > 1]
            if repeated:
                raise DownlinkError(f"{side} records repeat sample id {repeated[0]!r}")
        if self.ground_records is not None:
            onboard_ids = {r.sample_id for r in self.onboard_records}
            ground_ids = {r.sample_id for r in self.ground_records}
            if onboard_ids != ground_ids:
                raise DownlinkError("onboard and ground records cover different sample sets")
            ground_labels = {r.sample_id: r.true_label for r in self.ground_records}
            for r in self.onboard_records:
                if ground_labels[r.sample_id] != r.true_label:
                    raise DownlinkError(
                        f"sample id {r.sample_id!r}: ground true_label "
                        f"{ground_labels[r.sample_id]} != onboard true_label {r.true_label}"
                    )


@dataclass
class DownlinkReport:
    num_samples: int
    threshold: float
    full_volume_bytes: float
    transmitted_count: int
    transmitted_volume_bytes: float
    reduction_pct: float
    fits_daily_budget: bool
    daily_budget_bytes: float
    onboard_accuracy: float
    hybrid_accuracy: float | None = None

    def __post_init__(self) -> None:
        sent, n = self.transmitted_count, self.num_samples
        if not 0 <= sent <= n:
            raise DownlinkError(f"transmitted_count {sent} outside [0, num_samples {n}]")
        if self.reduction_pct != _reduction_pct(sent, n):
            raise DownlinkError(f"reduction_pct {self.reduction_pct} != {_reduction_pct(sent, n)}")
        fits = self.transmitted_volume_bytes <= self.daily_budget_bytes
        if self.fits_daily_budget != fits:
            raise DownlinkError(f"fits_daily_budget {self.fits_daily_budget} != "
                                f"(transmitted_volume_bytes <= daily_budget_bytes) = {fits}")

    def summary(self) -> str:
        lines = [
            f"samples: {self.num_samples}   threshold: {self.threshold}",
            f"full transmission: {self.full_volume_bytes / 1e6:.2f} MB",
            f"transmitted: {self.transmitted_count} samples, "
            f"{self.transmitted_volume_bytes / 1e6:.2f} MB "
            f"({self.reduction_pct:.2f}% reduction)",
            f"daily budget: {self.daily_budget_bytes / 1e6:.2f} MB -> "
            f"{'fits' if self.fits_daily_budget else 'does not fit'}",
            f"onboard accuracy: {self.onboard_accuracy:.4f}",
        ]
        if self.hybrid_accuracy is not None:
            lines.append(f"hybrid accuracy: {self.hybrid_accuracy:.4f}")
        return "\n".join(lines) + "\n"


def _reduction_pct(sent: int, n: int) -> float:
    """Percent of `n` samples kept onboard when `sent` are transmitted."""
    return 100.0 * (1.0 - sent / n) if n else 0.0


def simulate(scenario: DownlinkScenario, link: LinkBudget) -> DownlinkReport:
    """Full-transmission cost vs confidence-thresholded hybrid transmission.

    Transmission uses strict inequality (confidence < threshold). Hybrid
    accuracy counts onboard hits on confident samples plus ground hits on
    transmitted ones; it is only computed when ground records exist.
    """
    n = len(scenario.onboard_records)
    full_volume = n * scenario.bytes_per_sample
    transmitted = [r for r in scenario.onboard_records if r.confidence < scenario.threshold]
    transmitted_ids = {r.sample_id for r in transmitted}
    transmitted_volume = len(transmitted) * scenario.bytes_per_sample

    onboard_accuracy = (
        sum(r.correct for r in scenario.onboard_records) / n if n else 0.0
    )
    hybrid = None
    if scenario.ground_records is not None:
        onboard_hits = sum(
            r.correct for r in scenario.onboard_records if r.sample_id not in transmitted_ids
        )
        ground_hits = sum(
            r.correct for r in scenario.ground_records if r.sample_id in transmitted_ids
        )
        hybrid = (onboard_hits + ground_hits) / n if n else 0.0

    return DownlinkReport(
        num_samples=n,
        threshold=scenario.threshold,
        full_volume_bytes=full_volume,
        transmitted_count=len(transmitted),
        transmitted_volume_bytes=transmitted_volume,
        reduction_pct=_reduction_pct(len(transmitted), n),
        fits_daily_budget=transmitted_volume <= link.daily_budget_bytes,
        daily_budget_bytes=link.daily_budget_bytes,
        onboard_accuracy=onboard_accuracy,
        hybrid_accuracy=hybrid,
    )
