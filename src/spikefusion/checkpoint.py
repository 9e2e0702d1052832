"""Checkpoint container: text index plus raw little-endian float32 payload.

Layout::

    spikefusion-checkpoint v1
    epoch <int>
    adam_step 0
    config <n config lines>
    <config text, verbatim>
    arrays <count>
    <name> <dim0,dim1,...> <offset> <nbytes>     (one line per array)
    ---
    <binary payload>

The arrays are ``model.state()``: parameters and batch-norm running stats
(``buffer/`` prefix), what restoring a model reads.  ``adam_step`` is
always 0.  Files from earlier releases that also hold AdamW moments
(``adam_m/``, ``adam_v/`` arrays, nonzero ``adam_step``) load with the
moments skipped; any other array the model does not read is an error.
"""

from __future__ import annotations

import contextlib
import math
import os
from dataclasses import dataclass

import numpy as np

from .config import RunConfig, parse_config
from .errors import ConfigError, UsageError
from .model import RetrievalModel

MAGIC = "spikefusion-checkpoint v1"


@dataclass
class Checkpoint:
    arrays: dict[str, np.ndarray]
    epoch: int
    config: RunConfig


def save_checkpoint(path, model, epoch: int = 0):
    config_text = model.config.to_text()
    config_lines = config_text.splitlines()

    index_lines = []
    payload = bytearray()
    for name, arr in sorted(model.state().items()):
        arr = np.asarray(arr, dtype="<f4")
        shape = ",".join(str(s) for s in arr.shape) or "scalar"
        index_lines.append(f"{name} {shape} {len(payload)} {arr.nbytes}")
        payload.extend(arr.tobytes())

    header = [MAGIC,
              f"epoch {epoch}",
              "adam_step 0",
              f"config {len(config_lines)}"]
    header.extend(config_lines)
    header.append(f"arrays {len(index_lines)}")
    header.extend(index_lines)
    header.append("---")
    # write beside the target and rename over it, so a failed write leaves
    # the previous file whole
    tmp = f"{os.fspath(path)}.tmp"
    try:
        with open(tmp, "wb") as fh:
            fh.write(("\n".join(header) + "\n").encode("utf-8"))
            fh.write(bytes(payload))
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise
    return path


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = b"\n---\n"
    cut = blob.find(sep)
    if cut < 0:
        raise UsageError(f"{path}: not a checkpoint file (missing index separator)")
    try:
        lines = blob[:cut].decode("utf-8").splitlines()
    except UnicodeDecodeError as exc:
        raise UsageError(
            f"{path}: not a checkpoint file (header is not UTF-8)") from exc
    payload = blob[cut + len(sep):]
    if not lines or lines[0] != MAGIC:
        raise UsageError(f"{path}: unsupported checkpoint format {lines[:1]!r}")
    try:
        epoch = _header_int(lines[1], "epoch")
        _header_int(lines[2], "adam_step")
        n_config = _header_int(lines[3], "config")
        config_text = "\n".join(lines[4:4 + n_config]) + "\n"
        pos = 4 + n_config
        n_arrays = _header_int(lines[pos], "arrays")
        if len(lines) != pos + 1 + n_arrays:
            raise ValueError(f"{n_arrays} arrays declared, "
                             f"{len(lines) - pos - 1} index lines present")
        entries = [_index_entry(line) for line in lines[pos + 1:]]
    except (IndexError, ValueError) as exc:
        raise UsageError(f"{path}: malformed checkpoint header ({exc})") from exc
    try:
        config = parse_config(config_text)
    except ConfigError as exc:
        raise ConfigError(f"{path}: config snapshot: {exc}") from exc
    arrays: dict[str, np.ndarray] = {}
    for name, shape, offset, nbytes in entries:
        if name in arrays:
            raise UsageError(f"{path}: array {name!r} is indexed twice")
        if offset + nbytes > len(payload):
            raise UsageError(f"{path}: array {name!r} overruns the payload")
        flat = np.frombuffer(payload[offset:offset + nbytes], dtype="<f4")
        arrays[name] = flat.reshape(shape)
    return Checkpoint(arrays=arrays, epoch=epoch, config=config)


def _header_int(line: str, key: str) -> int:
    """Value of a ``<key> <non-negative int>`` header line."""
    parts = line.split()
    if len(parts) != 2 or parts[0] != key or not parts[1].isdigit():
        raise ValueError(f"expected '{key} <count>', got {line!r}")
    return int(parts[1])


def _index_entry(line: str):
    """(name, shape, offset, nbytes) of one ``<name> <shape> <offset>
    <nbytes>`` index line; the byte length must match the shape."""
    name, shape_s, offset_s, nbytes_s = line.rsplit(" ", 3)
    shape = () if shape_s == "scalar" else tuple(
        int(s) for s in shape_s.split(","))
    offset, nbytes = int(offset_s), int(nbytes_s)
    if min((offset, nbytes) + shape) < 0 or math.prod(shape) * 4 != nbytes:
        raise ValueError(f"array {name!r} byte length does not match shape")
    return name, shape, offset, nbytes


def restore_model(checkpoint: Checkpoint, region_width: int, word_width: int):
    """Rebuild a model from a checkpoint's config snapshot and arrays."""
    model = RetrievalModel(checkpoint.config, region_width, word_width)
    model.load_state({name: a for name, a in checkpoint.arrays.items()
                      if not name.startswith(("adam_m/", "adam_v/"))})
    return model
