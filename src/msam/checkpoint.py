"""Versioned binary model checkpoints.

Layout (all integers little-endian unsigned 32-bit unless noted):

    magic "MSAM" | format version | sha256 config digest (32 bytes)
    | config JSON length | config JSON (UTF-8)
    | tensor count | records

Each record: name length | name (UTF-8) | rank | dims... | float32 payload.
"""

import hashlib
import json
import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import FormatError
from .model import model_from_config

MAGIC = b"MSAM"
FORMAT_VERSION = 1


def _write_u32(fh, value: int):
    fh.write(struct.pack("<I", value))


def _read_exact(fh, size: int, what: str) -> bytes:
    data = fh.read(size)
    if len(data) != size:
        raise FormatError(f"{what}: truncated, expected {size} bytes, got {len(data)}")
    return data


def _read_u32(fh) -> int:
    return struct.unpack("<I", _read_exact(fh, 4, "4-byte integer"))[0]


def save_checkpoint(path, model):
    """Write the model's config and all parameter tensors as float32."""
    config_json = json.dumps(model.to_config(), sort_keys=True).encode("utf-8")
    params = model.params()
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        _write_u32(fh, FORMAT_VERSION)
        fh.write(hashlib.sha256(config_json).digest())
        _write_u32(fh, len(config_json))
        fh.write(config_json)
        _write_u32(fh, len(params))
        for name, tensor in params.items():
            encoded = name.encode("utf-8")
            _write_u32(fh, len(encoded))
            fh.write(encoded)
            _write_u32(fh, tensor.ndim)
            for dim in tensor.shape:
                _write_u32(fh, dim)
            fh.write(np.ascontiguousarray(tensor, dtype="<f4").tobytes())
    return Path(path)


def load_checkpoint(path):
    """Rebuild a model from a checkpoint; parameters are bit-exact float32."""
    with open(path, "rb") as fh:
        magic = fh.read(4)
        if magic != MAGIC:
            raise FormatError(f"magic: expected {MAGIC!r}, got {magic!r}")
        version = _read_u32(fh)
        if version != FORMAT_VERSION:
            raise FormatError(f"format_version: unsupported version {version}")
        digest = fh.read(32)
        config_json = fh.read(_read_u32(fh))
        if hashlib.sha256(config_json).digest() != digest:
            raise FormatError("config_digest: config JSON does not match its digest")
        config = json.loads(config_json.decode("utf-8"))
        tensors = {}
        for index in range(_read_u32(fh)):
            encoded = _read_exact(fh, _read_u32(fh), f"tensor {index} name")
            try:
                name = encoded.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"tensor {index} name: not UTF-8 ({exc})") from exc
            rank = _read_u32(fh)
            dims = tuple(_read_u32(fh) for _ in range(rank))
            count = math.prod(dims)
            payload = _read_exact(fh, 4 * count, f"tensor {name} payload")
            tensors[name] = np.frombuffer(payload, dtype="<f4").reshape(dims).copy()
        end = fh.tell()
        size = fh.seek(0, os.SEEK_END)
        if size != end:
            raise FormatError(f"trailing data: {size - end} bytes after the last tensor")
    model = model_from_config(config)
    params = model.params()
    if set(params) != set(tensors):
        missing = set(params) ^ set(tensors)
        raise FormatError(f"tensors: parameter set mismatch ({sorted(missing)})")
    for name, value in tensors.items():
        if params[name].shape != value.shape:
            raise FormatError(
                f"tensor {name}: shape {value.shape} != expected {params[name].shape}"
            )
        params[name][...] = value
    return model
