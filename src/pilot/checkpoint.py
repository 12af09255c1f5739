"""Flat named-tensor container: JSON header + little-endian payloads.

Layout: 4-byte magic, uint32 little-endian header length, UTF-8 JSON header,
then the raw tensor payloads back to back. The header carries a mandatory
``version`` field, optional ``meta`` dict, and per-tensor name/dtype/shape/
offset entries. Used for model checkpoints, raw-tensor datasets, and stored
prediction matrices.
"""

from __future__ import annotations

import json
import math
import os
import secrets
import struct
from pathlib import Path

import numpy as np

MAGIC = b"PTC1"
VERSION = 1
_ALIGN = 64


class ContainerError(ValueError):
    """Malformed container file."""


def save_tensors(path, tensors: dict, meta: dict | None = None) -> None:
    """Write a container to ``path`` atomically.

    The bytes go to a temporary file in the same directory, which then
    replaces ``path`` (``os.replace``). A write that fails midway removes the
    temporary file and leaves any earlier file at ``path`` as it was.
    Payloads are written straight from the arrays, with no bytes copy.
    """
    entries = []
    arrays = []
    offset = 0
    for name, arr in tensors.items():
        arr = np.asarray(arr, order="C")     # ascontiguousarray would make a 0-d array 1-d
        arr = arr.astype(arr.dtype.newbyteorder("<"), copy=False)
        entries.append(
            {
                "name": str(name),
                "dtype": arr.dtype.str,
                "shape": list(arr.shape),
                "offset": offset,
                "nbytes": arr.nbytes,
            }
        )
        arrays.append(arr)
        offset += arr.nbytes
    header = {"version": VERSION, "meta": meta or {}, "tensors": entries}
    blob = json.dumps(header, sort_keys=True, separators=(",", ":")).encode("utf-8")
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{secrets.token_hex(4)}.tmp")
    try:
        with open(tmp, "xb") as fh:
            fh.write(MAGIC)
            fh.write(struct.pack("<I", len(blob)))
            fh.write(blob)
            for arr in arrays:
                fh.write(arr.data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _aligned_buffer(nbytes: int) -> np.ndarray:
    """A writeable uint8 buffer whose first byte is 64-byte aligned, so that
    the arrays viewed from it are aligned (BLAS needs that) wherever the
    header ends."""
    raw = np.empty(nbytes + _ALIGN, dtype=np.uint8)
    start = -raw.ctypes.data % _ALIGN
    return raw[start : start + nbytes]


def load_tensors(path):
    """Load a container; returns ``(tensors, meta)``.

    The payloads are read once into one writeable buffer and every tensor is
    a view of it, so peak memory is about the file size. A tensor whose
    offset leaves it misaligned for its dtype is copied out instead. Any one
    view keeps the whole buffer alive: a caller that keeps a tensor beyond
    the load, but not the rest, copies it. A malformed header or tensor
    entry raises ``ContainerError``.
    """
    with open(path, "rb") as fh:
        size = os.fstat(fh.fileno()).st_size
        head = fh.read(8)
        if len(head) < 8 or head[:4] != MAGIC:
            raise ContainerError(f"{path}: not a tensor container (bad magic)")
        (header_len,) = struct.unpack("<I", head[4:8])
        if size < 8 + header_len:
            raise ContainerError(f"{path}: truncated header at byte {size}")
        try:
            header = json.loads(fh.read(header_len).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as err:
            raise ContainerError(f"{path}: unreadable header: {err}") from None
        if not isinstance(header, dict):
            raise ContainerError(f"{path}: header is a JSON {type(header).__name__}, not an object")
        if header.get("version") != VERSION:
            raise ContainerError(f"{path}: unsupported container version {header.get('version')!r}")
        if not isinstance(header.get("tensors"), list) or not isinstance(header.get("meta", {}), dict):
            raise ContainerError(f"{path}: header needs a 'tensors' list and a 'meta' object")
        base = 8 + header_len
        payload = _aligned_buffer(size - base)
        size = base + fh.readinto(payload)
    tensors = {}
    for entry in header["tensors"]:
        name, dtype, shape, start, nbytes = _entry_fields(path, entry)
        if base + start + nbytes > size:
            raise ContainerError(f"{path}: truncated payload for {name!r} at byte {size}")
        arr = payload[start : start + nbytes].view(dtype).reshape(shape)
        tensors[name] = arr if arr.flags.aligned else arr.copy()
    return tensors, header.get("meta", {})


def _entry_fields(path, entry):
    """``(name, dtype, shape, offset, nbytes)`` of one header tensor entry;
    ContainerError names what is wrong with it."""
    try:
        name = str(entry["name"])
        dtype = np.dtype(entry["dtype"])
        shape = tuple(int(d) for d in entry["shape"])
        start, nbytes = int(entry["offset"]), int(entry["nbytes"])
    except KeyError as err:
        raise ContainerError(f"{path}: tensor entry {entry!r} has no {err}") from None
    except (TypeError, ValueError) as err:
        raise ContainerError(f"{path}: malformed tensor entry {entry!r}: {err}") from None
    if dtype.hasobject or dtype.itemsize == 0:
        raise ContainerError(f"{path}: tensor {name!r}: dtype {dtype.str} cannot be stored")
    if start < 0 or min(shape, default=0) < 0:
        raise ContainerError(f"{path}: tensor {name!r}: negative offset or dimension "
                             f"(offset {start}, shape {list(shape)})")
    if nbytes != dtype.itemsize * math.prod(shape):
        raise ContainerError(f"{path}: tensor {name!r}: shape {list(shape)} of {dtype.str} needs "
                             f"{dtype.itemsize * math.prod(shape)} bytes, the entry gives {nbytes}")
    return name, dtype, shape, start, nbytes
