"""Synthetic cell-painting imagery: generation, augmentation, features.

The Cell Painting pipeline processes "a cell-painting dataset (~1.6 TB)
containing images that capture morphological changes in cells exposed to
various radiation levels", applying "augmentations such as rotation,
cropping, flipping, and contrast adjustments" before fine-tuning a ViT
(§II-A).  We generate images with *planted dose-dependent morphology* --
radiation increases nuclear blob size and decreases blob count (cell kill)
-- implement exactly the paper's augmentation set, and extract a compact
morphological feature vector that a classifier head (the "fine-tuned ViT"
surrogate) learns dose levels from.

All array work is vectorised per the hpc-parallel guide: blobs are rendered
through broadcasting on coordinate grids, features via array reductions.
"""

from __future__ import annotations

from typing import List, Sequence, Tuple

import numpy as np

__all__ = [
    "DOSE_LEVELS_GY",
    "generate_cell_image",
    "generate_dataset",
    "augment",
    "extract_features",
    "FEATURE_NAMES",
]

#: The dose classes the classifier distinguishes (Gy).
DOSE_LEVELS_GY: Tuple[float, ...] = (0.0, 0.1, 0.5, 1.0)

#: morphology model: nuclei count shrinks and radius grows with dose
BASE_BLOBS = 24
BLOBS_PER_GY = -10.0
BASE_RADIUS = 2.6
RADIUS_PER_GY = 1.8


def generate_cell_image(size: int, dose_gy: float, rng) -> np.ndarray:
    """One synthetic microscopy field (float32 in [0, 1])."""
    if size < 8:
        raise ValueError("size must be >= 8")
    if dose_gy < 0:
        raise ValueError("dose must be >= 0")
    n_blobs = max(3, int(rng.poisson(BASE_BLOBS + BLOBS_PER_GY * dose_gy)))
    radius = BASE_RADIUS + RADIUS_PER_GY * dose_gy

    yy, xx = np.mgrid[0:size, 0:size].astype(np.float32)
    image = np.zeros((size, size), dtype=np.float32)
    centers = rng.uniform(0, size, size=(n_blobs, 2)).astype(np.float32)
    radii = rng.gamma(shape=8.0, scale=radius / 8.0,
                      size=n_blobs).astype(np.float32)
    intensities = rng.uniform(0.5, 1.0, size=n_blobs).astype(np.float32)
    for (cy, cx), r, amp in zip(centers, radii, intensities):
        dist2 = (yy - cy) ** 2 + (xx - cx) ** 2
        image += amp * np.exp(-dist2 / (2.0 * max(r, 0.5) ** 2))
    image += rng.normal(0.0, 0.03, size=image.shape).astype(np.float32)
    peak = image.max()
    if peak > 0:
        image /= peak
    return np.clip(image, 0.0, 1.0)


def generate_dataset(n_per_dose: int, size: int, rng,
                     doses: Sequence[float] = DOSE_LEVELS_GY,
                     ) -> Tuple[np.ndarray, np.ndarray]:
    """(images, labels): label i corresponds to doses[i]."""
    images: List[np.ndarray] = []
    labels: List[int] = []
    for label, dose in enumerate(doses):
        for _ in range(n_per_dose):
            images.append(generate_cell_image(size, dose, rng))
            labels.append(label)
    return np.stack(images), np.asarray(labels, dtype=int)


# -- augmentation (the paper's set: rotation, cropping, flipping, contrast) ----

def augment(image: np.ndarray, rng,
            crop_fraction: float = 0.85) -> np.ndarray:
    """One random augmentation pass: rotate, flip, crop+resize, contrast."""
    out = np.rot90(image, k=int(rng.integers(4)))
    if rng.random() < 0.5:
        out = out[:, ::-1]
    if rng.random() < 0.5:
        out = out[::-1, :]
    # random crop, rescaled back by nearest-neighbour sampling
    size = out.shape[0]
    crop = max(4, int(size * crop_fraction))
    y0 = int(rng.integers(0, size - crop + 1))
    x0 = int(rng.integers(0, size - crop + 1))
    window = out[y0:y0 + crop, x0:x0 + crop]
    idx = np.linspace(0, crop - 1, size).astype(int)
    out = window[np.ix_(idx, idx)]
    # contrast jitter around the mean
    gain = float(rng.uniform(0.8, 1.25))
    mean = out.mean()
    out = np.clip((out - mean) * gain + mean, 0.0, 1.0)
    return np.ascontiguousarray(out)


# -- features -------------------------------------------------------------------

FEATURE_NAMES = (
    "mean", "std", "p10", "p90",
    "bright_area", "blob_count", "mean_blob_size", "edge_density",
    "radial_mean", "radial_std",
)


def _count_blobs(binary: np.ndarray) -> Tuple[int, float]:
    """Connected components (4-neighbour) via iterative flood fill.

    Returns (count, mean size).  Written with an explicit stack (no
    recursion) and a visited mask; the image sizes used (<=128) keep this
    cheap.
    """
    visited = np.zeros_like(binary, dtype=bool)
    h, w = binary.shape
    count = 0
    sizes: List[int] = []
    for sy in range(h):
        row = binary[sy]
        for sx in range(w):
            if not row[sx] or visited[sy, sx]:
                continue
            count += 1
            size = 0
            stack = [(sy, sx)]
            visited[sy, sx] = True
            while stack:
                y, x = stack.pop()
                size += 1
                if y > 0 and binary[y - 1, x] and not visited[y - 1, x]:
                    visited[y - 1, x] = True
                    stack.append((y - 1, x))
                if y + 1 < h and binary[y + 1, x] and not visited[y + 1, x]:
                    visited[y + 1, x] = True
                    stack.append((y + 1, x))
                if x > 0 and binary[y, x - 1] and not visited[y, x - 1]:
                    visited[y, x - 1] = True
                    stack.append((y, x - 1))
                if x + 1 < w and binary[y, x + 1] and not visited[y, x + 1]:
                    visited[y, x + 1] = True
                    stack.append((y, x + 1))
            sizes.append(size)
    return count, float(np.mean(sizes)) if sizes else 0.0


def extract_features(image: np.ndarray) -> np.ndarray:
    """Morphological feature vector (len == len(FEATURE_NAMES))."""
    if image.ndim != 2:
        raise ValueError("expected a 2-D image")
    flat = image.ravel()
    threshold = flat.mean() + flat.std()
    binary = image > threshold
    blob_count, mean_blob = _count_blobs(binary)
    # gradient magnitude as edge density
    gy, gx = np.gradient(image.astype(float))
    edges = float(np.sqrt(gy ** 2 + gx ** 2).mean())
    # radial intensity profile
    size = image.shape[0]
    yy, xx = np.mgrid[0:size, 0:size]
    r = np.sqrt((yy - size / 2) ** 2 + (xx - size / 2) ** 2)
    inner = image[r < size / 4]
    return np.array([
        float(flat.mean()),
        float(flat.std()),
        float(np.percentile(flat, 10)),
        float(np.percentile(flat, 90)),
        float(binary.mean()),
        float(blob_count),
        mean_blob,
        edges,
        float(inner.mean()) if inner.size else 0.0,
        float(inner.std()) if inner.size else 0.0,
    ])
