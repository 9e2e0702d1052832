"""Checkpoint container: text index plus raw little-endian float32 payload.

Layout::

    spikefusion-checkpoint v1
    epoch <int>
    adam_step <int>
    config <n config lines>
    <config text, verbatim>
    arrays <count>
    <name> <dim0,dim1,...> <offset> <nbytes>     (one line per array)
    ---
    <binary payload>

Array names cover model parameters, batch-norm running stats (``buffer/``
prefix) and optimizer moments (``adam_m/``, ``adam_v/``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import UsageError

MAGIC = "spikefusion-checkpoint v1"


@dataclass
class Checkpoint:
    arrays: dict[str, np.ndarray]
    epoch: int
    adam_step: int
    config_text: str

    def params(self) -> dict[str, np.ndarray]:
        return {k: v for k, v in self.arrays.items()
                if not k.startswith(("buffer/", "adam_m/", "adam_v/"))}

    def buffers(self) -> dict[str, np.ndarray]:
        return {k.split("/", 1)[1]: v for k, v in self.arrays.items()
                if k.startswith("buffer/")}

    def adam_moments(self) -> dict[str, np.ndarray]:
        return {k: v for k, v in self.arrays.items()
                if k.startswith(("adam_m/", "adam_v/"))}


def save_checkpoint(path, model, optimizer=None, epoch: int = 0):
    arrays: dict[str, np.ndarray] = {}
    for name, p in model.params().items():
        arrays[name] = p.data
    for name, buf in model.buffers().items():
        arrays[f"buffer/{name}"] = buf
    adam_step = 0
    if optimizer is not None:
        arrays.update(optimizer.state_arrays())
        adam_step = optimizer.step_count
    config_text = model.config.to_text()
    config_lines = config_text.splitlines()

    index_lines = []
    payload = bytearray()
    for name in sorted(arrays):
        arr = np.asarray(arrays[name], dtype="<f4")
        shape = ",".join(str(s) for s in arr.shape) or "scalar"
        index_lines.append(f"{name} {shape} {len(payload)} {arr.nbytes}")
        payload.extend(arr.tobytes())

    header = [MAGIC,
              f"epoch {epoch}",
              f"adam_step {adam_step}",
              f"config {len(config_lines)}"]
    header.extend(config_lines)
    header.append(f"arrays {len(index_lines)}")
    header.extend(index_lines)
    header.append("---")
    with open(path, "wb") as fh:
        fh.write(("\n".join(header) + "\n").encode("utf-8"))
        fh.write(bytes(payload))
    return path


def load_checkpoint(path) -> Checkpoint:
    with open(path, "rb") as fh:
        blob = fh.read()
    sep = b"\n---\n"
    cut = blob.find(sep)
    if cut < 0:
        raise UsageError(f"{path}: not a checkpoint file (missing index separator)")
    lines = blob[:cut].decode("utf-8").splitlines()
    payload = blob[cut + len(sep):]
    if not lines or lines[0] != MAGIC:
        raise UsageError(f"{path}: unsupported checkpoint format {lines[:1]!r}")
    try:
        epoch = _header_int(lines[1], "epoch")
        adam_step = _header_int(lines[2], "adam_step")
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
    arrays: dict[str, np.ndarray] = {}
    for name, shape, offset, nbytes in entries:
        if offset + nbytes > len(payload):
            raise UsageError(f"{path}: array {name!r} overruns the payload")
        flat = np.frombuffer(payload[offset:offset + nbytes], dtype="<f4")
        arrays[name] = flat.reshape(shape)
    return Checkpoint(arrays=arrays, epoch=epoch, adam_step=adam_step,
                      config_text=config_text)


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
    from .config import parse_config
    from .model import RetrievalModel

    config = parse_config(checkpoint.config_text)
    model = RetrievalModel(config, region_width, word_width)
    model.load_params(checkpoint.params())
    model.load_buffers(checkpoint.buffers())
    return model
