"""Seeded synthetic dataset: class-structured Gaussian-blob images.

Each class owns a blob position, width and per-channel amplitude drawn
from the class seed; samples add white noise on top. The on-disk layout
is a directory of raw Float32 tensor files (`model_io.tensor_file`)
plus an index.csv (sample_id, file, label) and a meta.json with the
tensor shape and class count.
"""
from __future__ import annotations

from pathlib import Path

import numpy as np

from .graph import DType
from .model_io import (
    _field, csv_text, json_text, read_csv, read_json, read_tensor_file, tensor_file, write_files,
)


# One NHWC sample and the class count: the bundled models' input and
# classifier width too.
INPUT_SHAPE = (1, 32, 32, 3)
NUM_CLASSES = 10
_NOISE = 0.5  # std of the white noise on each sample
DEFAULT_NUM_SAMPLES = 200
DEFAULT_SEED = 7


class DatasetError(ValueError):
    pass


def class_pattern(label: int, seed: int) -> np.ndarray:
    hw, channels = INPUT_SHAPE[1], INPUT_SHAPE[3]
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
    num_samples: int = DEFAULT_NUM_SAMPLES,
    seed: int = DEFAULT_SEED,
    noise_seed: int | None = None,
) -> list[tuple[str, np.ndarray, int]]:
    """Balanced in-memory dataset of (sample_id, INPUT_SHAPE image, label).

    `seed` fixes the class patterns; `noise_seed` (defaults to `seed`)
    fixes the per-sample noise, so disjoint train/eval splits of the same
    classes come from different noise seeds.
    """
    if noise_seed is None:
        noise_seed = seed
    rng = np.random.default_rng(np.random.SeedSequence([noise_seed, num_samples]))
    patterns = [class_pattern(k, seed) for k in range(NUM_CLASSES)]
    samples = []
    for i in range(num_samples):
        label = i % NUM_CLASSES
        img = patterns[label] + rng.normal(0.0, _NOISE, size=patterns[label].shape)
        samples.append((f"s{i:05d}", img[None].astype(np.float32), label))
    return samples


def generate_dataset(
    out_dir: str | Path, num_samples: int = DEFAULT_NUM_SAMPLES, seed: int = DEFAULT_SEED
) -> Path:
    out_dir = Path(out_dir)
    (out_dir / "samples").mkdir(parents=True, exist_ok=True)
    samples = synthetic_samples(num_samples, seed)
    files = [tensor_file(out_dir / f"samples/{sample_id}.bin", img, DType.FLOAT32)
             for sample_id, img, _ in samples]
    index = [("sample_id", "file", "label")]
    index += [(sample_id, f"samples/{sample_id}.bin", label) for sample_id, _, label in samples]
    meta = {
        "shape": list(INPUT_SHAPE),
        "num_classes": NUM_CLASSES,
        "seed": seed,
        "noise": _NOISE,
    }
    # index.csv last, so an index never names a sample file not yet written.
    write_files(files + [(out_dir / "meta.json", json_text(meta)),
                         (out_dir / "index.csv", csv_text(index))])
    return out_dir


def load_dataset(path: str | Path) -> list[tuple[str, np.ndarray, int]]:
    """The (sample_id, image, label) samples of a generate_dataset directory.

    A malformed meta.json or index.csv, a sample id that index.csv
    repeats, or a sample file whose size does not match `shape` raises
    DatasetError naming the file (and the line and column of index.csv).
    """
    path = Path(path)
    meta_path = path / "meta.json"
    shape = _field(read_json(meta_path, DatasetError), "shape", str(meta_path), [int], DatasetError)
    if not shape or min(shape) < 1:
        raise DatasetError(f"{meta_path}: shape {shape!r} must hold positive integers")
    columns = {"sample_id": str, "file": str, "label": int}
    samples = []
    first_line: dict[str, int] = {}
    for line, row in read_csv(path / "index.csv", columns, DatasetError):
        first = first_line.setdefault(row["sample_id"], line)
        if first != line:
            raise DatasetError(
                f"{path / 'index.csv'} line {line}: sample_id {row['sample_id']!r} "
                f"repeats line {first}"
            )
        arr = read_tensor_file(path / row["file"], DType.FLOAT32, shape, DatasetError)
        samples.append((row["sample_id"], arr, row["label"]))
    return samples
