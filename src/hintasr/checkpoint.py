"""Versioned checkpoint container: magic "SCJ1", a JSON manifest header with
(name, shape, byte offset) entries, then raw little-endian float64 arrays."""

from __future__ import annotations

import json
import math
import os
import secrets
from pathlib import Path
from typing import Optional

import numpy as np

from .model import ModelConfig, ModelParams, param_shapes
from .tensor import ContractError, Tensor

MAGIC = b"SCJ1\n"


class CheckpointError(ValueError):
    pass


def save_checkpoint(path, params: ModelParams, cfg: ModelConfig,
                    extras: Optional[dict] = None, meta: Optional[dict] = None) -> None:
    """Write params (and optional extra arrays such as optimizer moments).

    Arrays are serialized in sorted-name order so identical states produce
    byte-identical files. The file is written under a temporary name in the
    same directory and then renamed over ``path``, so a failure mid-write
    leaves any previous checkpoint at ``path`` untouched.
    """
    arrays = {name: t.array for name, t in params.items()}
    for name, arr in (extras or {}).items():
        arrays[f"extra.{name}"] = np.asarray(arr, dtype=np.float64)
    manifest = []
    offset = 0
    names = sorted(arrays)
    for name in names:
        arr = arrays[name]
        manifest.append({"name": name, "shape": list(arr.shape), "offset": offset})
        offset += arr.size * 8
    header = {
        "config": cfg.to_dict(),
        "meta": meta or {},
        "arrays": manifest,
    }
    blob = json.dumps(header, sort_keys=True).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}-{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as f:
            f.write(MAGIC)
            f.write(blob)
            f.write(b"\n")
            for name in names:
                f.write(np.ascontiguousarray(arrays[name], dtype="<f8").tobytes())
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _read_header(raw: bytes, path):
    """Parse the JSON header line; returns (header dict, payload offset)."""
    nl = raw.find(b"\n", len(MAGIC))
    if nl < 0:
        raise CheckpointError(f"{path}: no header line after the magic")
    try:
        header = json.loads(raw[len(MAGIC): nl].decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as e:
        raise CheckpointError(f"{path}: unreadable header: {e}") from None
    if not isinstance(header, dict) or not isinstance(header.get("config"), dict) \
            or not isinstance(header.get("arrays"), list):
        raise CheckpointError(f"{path}: header needs a 'config' object and an 'arrays' list")
    return header, nl + 1


def _entry_fields(entry, path):
    try:
        name, shape, start = entry["name"], tuple(entry["shape"]), entry["offset"]
    except (TypeError, KeyError) as e:
        raise CheckpointError(f"{path}: bad array entry {entry!r}") from None
    if not isinstance(name, str) or not isinstance(start, int) or start < 0 \
            or not all(isinstance(n, int) and n >= 0 for n in shape):
        raise CheckpointError(f"{path}: bad array entry {entry!r}")
    return name, shape, start


def load_checkpoint(path):
    """Read a checkpoint; validates shapes against the stored ModelConfig.

    Returns (params, config, extras, meta). A file that is not a complete
    checkpoint raises CheckpointError.
    """
    raw = Path(path).read_bytes()
    if not raw.startswith(MAGIC):
        raise CheckpointError(f"{path}: bad magic, not a checkpoint file")
    header, payload_start = _read_header(raw, path)
    try:
        cfg = ModelConfig(**header["config"])
    except (TypeError, ContractError) as e:
        raise CheckpointError(f"{path}: bad stored config: {e}") from None
    payload = memoryview(raw)[payload_start:]
    expected = param_shapes(cfg)
    tensors = {}
    extras = {}
    for entry in header["arrays"]:
        name, shape, start = _entry_fields(entry, path)
        size = math.prod(shape)
        if start + size * 8 > len(payload):
            raise CheckpointError(f"{path}: truncated array {name}")
        # a read-only view of the file bytes; the one copy is made below
        arr = np.frombuffer(payload, dtype="<f8", count=size, offset=start).reshape(shape)
        if name.startswith("extra."):
            extras[name[len("extra."):]] = arr.astype(np.float64)
        else:
            if name not in expected:
                raise CheckpointError(f"{path}: unknown parameter {name}")
            if shape != expected[name]:
                raise CheckpointError(
                    f"{path}: shape mismatch for {name}: file {shape} vs config {expected[name]}")
            tensors[name] = Tensor(arr, requires_grad=True)
    missing = set(expected) - set(tensors)
    if missing:
        raise CheckpointError(f"{path}: missing parameters {sorted(missing)[:4]}...")
    # keep deterministic (creation) order for the parameter map
    ordered = {name: tensors[name] for name in expected}
    return ModelParams(ordered), cfg, extras, header.get("meta", {})
