"""Seeded synthetic dataset: class-structured Gaussian-blob images.

Each class owns a blob position, width and per-channel amplitude drawn
from the class seed; samples add white noise on top. The on-disk layout
is a directory of raw little-endian Float32 tensor files plus an
index.csv (sample_id, file, label) and a meta.json with the tensor
shape and class count.
"""
from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np


def class_pattern(num_classes: int, label: int, hw: int, channels: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(np.random.SeedSequence([seed, label]))
    cy, cx = rng.uniform(hw * 0.25, hw * 0.75, size=2)
    sigma = rng.uniform(hw * 0.10, hw * 0.22)
    amplitude = rng.uniform(-1.0, 1.0, size=channels)
    offset = rng.uniform(-0.2, 0.2, size=channels)
    yy, xx = np.mgrid[0:hw, 0:hw]
    blob = np.exp(-((yy - cy) ** 2 + (xx - cx) ** 2) / (2.0 * sigma**2))
    img = blob[:, :, None] * amplitude[None, None, :] + offset[None, None, :]
    return img.astype(np.float32)


def synthetic_samples(
    num_samples: int = 200,
    num_classes: int = 10,
    hw: int = 32,
    channels: int = 3,
    seed: int = 7,
    noise: float = 0.5,
    noise_seed: int | None = None,
) -> list[tuple[str, np.ndarray, int]]:
    """Balanced in-memory dataset of (sample_id, (1,hw,hw,C) image, label).

    `seed` fixes the class patterns; `noise_seed` (defaults to `seed`)
    fixes the per-sample noise, so disjoint train/eval splits of the same
    classes come from different noise seeds.
    """
    if noise_seed is None:
        noise_seed = seed
    rng = np.random.default_rng(np.random.SeedSequence([noise_seed, num_samples]))
    patterns = [
        class_pattern(num_classes, k, hw, channels, seed) for k in range(num_classes)
    ]
    samples = []
    for i in range(num_samples):
        label = i % num_classes
        img = patterns[label] + rng.normal(0.0, noise, size=patterns[label].shape)
        samples.append((f"s{i:05d}", img[None].astype(np.float32), label))
    return samples


def generate_dataset(
    out_dir: str | Path,
    num_samples: int = 200,
    num_classes: int = 10,
    hw: int = 32,
    channels: int = 3,
    seed: int = 7,
    noise: float = 0.5,
) -> Path:
    out_dir = Path(out_dir)
    (out_dir / "samples").mkdir(parents=True, exist_ok=True)
    samples = synthetic_samples(num_samples, num_classes, hw, channels, seed, noise)
    with open(out_dir / "index.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sample_id", "file", "label"])
        for sample_id, img, label in samples:
            rel = f"samples/{sample_id}.bin"
            arr = np.ascontiguousarray(img, dtype=np.float32)
            (out_dir / rel).write_bytes(arr.astype("<f4").tobytes())
            writer.writerow([sample_id, rel, label])
    meta = {
        "shape": [1, hw, hw, channels],
        "num_classes": num_classes,
        "seed": seed,
        "noise": noise,
    }
    (out_dir / "meta.json").write_text(json.dumps(meta, indent=2, sort_keys=True) + "\n")
    return out_dir


def load_dataset(path: str | Path) -> list[tuple[str, np.ndarray, int]]:
    path = Path(path)
    meta = json.loads((path / "meta.json").read_text())
    shape = tuple(meta["shape"])
    samples = []
    with open(path / "index.csv", newline="") as fh:
        for row in csv.DictReader(fh):
            raw = (path / row["file"]).read_bytes()
            arr = np.frombuffer(raw, dtype="<f4").astype(np.float32).reshape(shape)
            samples.append((row["sample_id"], arr, int(row["label"])))
    return samples
