"""Hardware profiles for the CPU + NPU target.

Throughput, frequency and RAM defaults describe the STM32N6-class part the
toolchain targets (800 MHz CPU, ~600 GOPS INT8 NPU, 4.2 MB SRAM). Power,
utilization and overhead values are illustrative profile configuration,
not measured silicon data; the calibration fixture profile pins them so
the bundled desk models land in a realistic latency/energy regime.
"""
from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

from .graph import OpKind
from .model_io import decode, read_json

DEFAULT_NPU_OPS = ("Conv2D", "DepthwiseConv2D", "ReLU", "Add")


@dataclass
class HardwareProfile:
    name: str = "stm32n6-default"
    npu_supported_ops: tuple[str, ...] = DEFAULT_NPU_OPS
    npu_throughput_gops: float = 600.0
    npu_utilization: float = 0.5
    cpu_freq_mhz: float = 800.0
    cpu_macs_per_cycle: float = 1.0
    cpu_utilization: float = 1.0
    npu_power_w: float = 0.40
    cpu_power_w: float = 0.20
    idle_power_w: float = 0.05
    per_op_overhead_us: float = 5.0
    transfer_latency_us: float = 0.0
    ram_budget_bytes: int = 4_200_000
    flash_budget_bytes: int = 8_000_000
    runtime_ram_overhead_bytes: int = 16_384
    op_metadata_bytes: int = 64
    deadline_fps: float = 5.0
    notes: str = ""

    def __post_init__(self) -> None:
        self.npu_supported_ops = tuple(self.npu_supported_ops)
        for kind in self.npu_supported_ops:
            OpKind(kind)  # raises on unknown op names
        positive = (
            "npu_throughput_gops", "npu_utilization", "cpu_freq_mhz",
            "cpu_macs_per_cycle", "cpu_utilization", "npu_power_w",
            "cpu_power_w", "idle_power_w", "ram_budget_bytes",
            "flash_budget_bytes", "deadline_fps",
        )
        for name in positive:
            if getattr(self, name) <= 0:
                raise ValueError(f"profile field {name} must be positive")
        for name in ("per_op_overhead_us", "transfer_latency_us",
                     "runtime_ram_overhead_bytes", "op_metadata_bytes"):
            if getattr(self, name) < 0:
                raise ValueError(f"profile field {name} must be non-negative")

    def supports(self, kind: OpKind) -> bool:
        return kind.value in self.npu_supported_ops

    def throughput_ops_per_us(self, target: str) -> float:
        """Effective ops/microsecond for a target ("NPU" or "CPU")."""
        if target == "NPU":
            return self.npu_throughput_gops * 1e3 * self.npu_utilization
        # 2 ops per MAC.
        return self.cpu_freq_mhz * self.cpu_macs_per_cycle * 2.0 * self.cpu_utilization

    def active_power_w(self, target: str) -> float:
        return self.npu_power_w if target == "NPU" else self.cpu_power_w

    @classmethod
    def load(cls, path: str | Path) -> "HardwareProfile":
        """A profile file (`model_io.decode`): absent fields keep their
        defaults; ValueError names the file and an unknown or wrong-typed key."""
        return decode(cls, read_json(path, ValueError), f"hardware profile {path}", ValueError)
