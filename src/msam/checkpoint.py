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

from .dataio import new_file
from .errors import FormatError, GeometryError, ValidationError
from .model import model_from_params

MAGIC = b"MSAM"
FORMAT_VERSION = 1


def _write_u32(fh, value: int):
    fh.write(struct.pack("<I", value))


def _check_left(fh, size: int, what: str):
    """Reject a `size` larger than the bytes left in the file before anything
    is allocated for it, so a corrupt length can neither allocate nor overflow."""
    left = os.fstat(fh.fileno()).st_size - fh.tell()
    if size > left:
        raise FormatError(f"{what}: truncated, expected {size} bytes, got {left}")


def _read_exact(fh, size: int, what: str) -> bytes:
    _check_left(fh, size, what)
    return fh.read(size)


def _read_u32(fh) -> int:
    return struct.unpack("<I", _read_exact(fh, 4, "4-byte integer"))[0]


def save_checkpoint(path, model):
    """Write the model's config and all parameter tensors as float32.  The
    file replaces `path` only once it is complete (`dataio.new_file`)."""
    config_json = json.dumps(model.to_config(), sort_keys=True).encode("utf-8")
    params = model.params()
    with new_file(path) as fh:
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
            fh.write(np.ascontiguousarray(tensor, dtype="<f4"))
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
        digest = _read_exact(fh, 32, "config_digest")
        config_json = _read_exact(fh, _read_u32(fh), "config JSON")
        if hashlib.sha256(config_json).digest() != digest:
            raise FormatError("config_digest: config JSON does not match its digest")
        tensors = {}
        for index in range(_read_u32(fh)):
            encoded = _read_exact(fh, _read_u32(fh), f"tensor {index} name")
            try:
                name = encoded.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise FormatError(f"tensor {index} name: not UTF-8 ({exc})") from exc
            rank = _read_u32(fh)
            dims = tuple(_read_u32(fh) for _ in range(rank))
            _check_left(fh, 4 * math.prod(dims), f"tensor {name} payload")
            try:
                tensor = np.empty(dims, dtype="<f4")
            except ValueError as exc:  # more dimensions than NumPy supports
                raise FormatError(f"tensor {name}: {exc}") from exc
            fh.readinto(tensor)
            # min and max carry a NaN through, and need no mask of the tensor's size
            if not np.isfinite([tensor.min(initial=0), tensor.max(initial=0)]).all():
                raise FormatError(f"tensor {name}: non-finite values")
            tensors[name] = tensor
        end = fh.tell()
        size = fh.seek(0, os.SEEK_END)
        if size != end:
            raise FormatError(f"trailing data: {size - end} bytes after the last tensor")
    try:
        return model_from_params(json.loads(config_json.decode("utf-8")), tensors)
    except KeyError as exc:
        raise FormatError(f"config: missing key {exc}") from exc
    except (ValueError, RecursionError, TypeError, AttributeError, GeometryError,
            ValidationError) as exc:
        # not UTF-8 JSON; an object lacks a field, has a stray one or is of the wrong
        # type; a value is out of range; or the tensors are not the ones it describes
        raise FormatError(f"config: {exc}") from exc
