"""Dataset manifest, raw feature files, and synthetic pair generation.

A dataset is a directory holding ``manifest.json`` plus one raw file per
feature record.  Records are little-endian float32, row-major; the manifest
header declares the token counts and widths, and every referenced file's
byte length is validated against the declared shape before any compute.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

MANIFEST_VERSION = "feature-pairs-v1"
MANIFEST_NAME = "manifest.json"
LATENT_DIM = 16


@dataclass
class DatasetManifest:
    version: str
    pairs: int
    n_regions: int
    n_words: int
    region_width: int
    word_width: int
    entries: list[dict]

    @staticmethod
    def from_json(obj) -> "DatasetManifest":
        if not isinstance(obj, dict):
            raise UsageError("manifest must be a JSON object")
        required = ("version", "pairs", "n_regions", "n_words",
                    "region_width", "word_width", "entries")
        for key in required:
            if key not in obj:
                raise UsageError(f"manifest missing field {key!r}")
        if obj["version"] != MANIFEST_VERSION:
            raise UsageError(
                f"unsupported manifest version {obj['version']!r}"
            )
        for key in required[1:-1]:
            value = obj[key]
            if isinstance(value, bool) or not isinstance(value, int) \
                    or value < 1:
                raise UsageError(
                    f"manifest field {key!r} must be an integer >= 1, "
                    f"got {value!r}")
        entries = obj["entries"]
        if not isinstance(entries, list):
            raise UsageError("manifest field 'entries' must be a list")
        for i, entry in enumerate(entries):
            if not (isinstance(entry, dict)
                    and isinstance(entry.get("regions"), str)
                    and isinstance(entry.get("words"), str)):
                raise UsageError(
                    f"manifest entry {i} must be an object with string "
                    f"'regions' and 'words' fields")
        return DatasetManifest(**{k: obj[k] for k in required})


@dataclass
class Dataset:
    regions: np.ndarray  # (P, N, region_width) float32
    words: np.ndarray    # (P, L, word_width) float32

    @property
    def pairs(self) -> int:
        return self.regions.shape[0]

    @property
    def n_regions(self) -> int:
        return self.regions.shape[1]

    @property
    def n_words(self) -> int:
        return self.words.shape[1]

    def subset(self, indices) -> "Dataset":
        return Dataset(self.regions[indices], self.words[indices])


def synth_dataset(out_dir, seed: int, pairs: int, n_regions: int = 36,
                  n_words: int = 36, region_width: int = 2048,
                  word_width: int = 768, noise: float = 0.1) -> str:
    """Write a synthetic paired-feature dataset; returns the manifest path.

    Each pair shares a latent code; region and word tokens are fixed random
    projections of that code plus independent Gaussian noise, so matched
    pairs are learnable while unpaired similarity sits at chance.
    """
    if pairs < 2:
        raise UsageError("a paired dataset needs at least 2 pairs")
    shape = dict(n_regions=n_regions, n_words=n_words,
                 region_width=region_width, word_width=word_width)
    for name, value in shape.items():
        if value < 1:
            raise UsageError(f"{name} must be >= 1, got {value}")
    if not 0 <= noise < math.inf:
        raise UsageError(f"noise must be finite and >= 0, got {noise}")
    rng = np.random.default_rng(seed)
    codes = rng.standard_normal((pairs, LATENT_DIM))
    scale = 1.0 / np.sqrt(LATENT_DIM)
    region_maps = rng.standard_normal((n_regions, LATENT_DIM, region_width)) * scale
    word_maps = rng.standard_normal((n_words, LATENT_DIM, word_width)) * scale
    regions = np.einsum("pz,kzd->pkd", codes, region_maps)
    words = np.einsum("pz,kzd->pkd", codes, word_maps)
    if noise > 0:
        regions = regions + noise * rng.standard_normal(regions.shape)
        words = words + noise * rng.standard_normal(words.shape)
    regions = regions.astype("<f4")
    words = words.astype("<f4")

    os.makedirs(out_dir, exist_ok=True)
    entries = []
    for p in range(pairs):
        r_name = f"pair_{p:05d}.regions.bin"
        w_name = f"pair_{p:05d}.words.bin"
        with open(os.path.join(out_dir, r_name), "wb") as fh:
            fh.write(regions[p].tobytes())
        with open(os.path.join(out_dir, w_name), "wb") as fh:
            fh.write(words[p].tobytes())
        entries.append({"regions": r_name, "words": w_name})
    manifest = {
        "version": MANIFEST_VERSION,
        "pairs": pairs,
        "n_regions": n_regions,
        "n_words": n_words,
        "region_width": region_width,
        "word_width": word_width,
        "entries": entries,
    }
    manifest_path = os.path.join(out_dir, MANIFEST_NAME)
    with open(manifest_path, "w", encoding="utf-8") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return manifest_path


def load_manifest(path) -> Dataset:
    """Load a dataset directory or manifest path, validating every record."""
    if os.path.isdir(path):
        path = os.path.join(path, MANIFEST_NAME)
    with open(path, "r", encoding="utf-8") as fh:
        try:
            obj = json.load(fh)
        except ValueError as exc:
            raise UsageError(f"{path}: manifest is not valid JSON ({exc})") \
                from exc
    manifest = DatasetManifest.from_json(obj)
    base = os.path.dirname(os.path.abspath(path))
    if len(manifest.entries) != manifest.pairs:
        raise UsageError(
            f"manifest declares {manifest.pairs} pairs but lists "
            f"{len(manifest.entries)} entries"
        )
    shapes = {"regions": (manifest.n_regions, manifest.region_width),
              "words": (manifest.n_words, manifest.word_width)}
    # every record's size is checked before any buffer is allocated
    for entry in manifest.entries:
        for key, shape in shapes.items():
            _check_record(base, entry[key], shape)
    arrays = {key: np.empty((manifest.pairs,) + shape, dtype=np.float32)
              for key, shape in shapes.items()}
    for p, entry in enumerate(manifest.entries):
        for key, shape in shapes.items():
            with open(os.path.join(base, entry[key]), "rb") as fh:
                arrays[key][p] = np.frombuffer(fh.read(), dtype="<f4") \
                    .reshape(shape)
    return Dataset(arrays["regions"], arrays["words"])


def _check_record(base: str, rel_path: str, shape):
    full = os.path.join(base, rel_path)
    if not os.path.isfile(full):
        raise UsageError(f"manifest references missing file {rel_path!r}")
    expected = math.prod(shape) * 4
    actual = os.path.getsize(full)
    if actual != expected:
        raise UsageError(
            f"record {rel_path!r} holds {actual} bytes, expected {expected} "
            f"for shape {tuple(shape)}"
        )


def train_val_split(dataset: Dataset, val_fraction: float, seed: int):
    """Seed-stable shuffle split; returns (train, val)."""
    perm = np.random.default_rng(seed).permutation(dataset.pairs)
    n_val = int(round(dataset.pairs * val_fraction))
    val_idx, train_idx = perm[:n_val], perm[n_val:]
    return dataset.subset(np.sort(train_idx)), dataset.subset(np.sort(val_idx))
