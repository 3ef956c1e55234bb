"""Zero-copy binary persistence of trained policies.

The JSON schema in :mod:`repro.policies.serialization` is the auditable
interchange format; this module is the *serving* format.  It writes a
:class:`~repro.policies.trained.TrainedPolicy`'s own packed columns —
sorted ``uint64`` state keys, ``uint32`` decided-action ids and
``float64`` expected costs — as one versioned container file, and
:func:`load_policy_binary` builds the same class over the memory-mapped
columns without decoding a row: lookups are a vectorized
``searchsorted`` against the key column, so a table with millions of
rules costs no load time and no resident memory beyond the pages the
query stream actually touches.  The key encoding belongs to the table
(:mod:`repro.policies.trained`); this module owns only the file layout.

File layout (all integers little-endian)::

    bytes 0..7    magic  b"RPROPOLB"
    bytes 8..11   container version (uint32, currently 1)
    bytes 12..19  header length in bytes (uint64)
    header        UTF-8 JSON: label, vocabularies, array directory
    padding       zeros to the next 64-byte boundary
    data          raw array blobs, each 64-byte aligned

Every load checks the header without reading a data page: a length
that fits the file, a JSON object that
:data:`~repro.records.BINARY_HEADER` accepts, the three columns' exact
dtypes and ``[rule_count]`` shapes, columns that end inside the file,
and vocabularies whose key space fits 64 bits.
``verify=True`` reads every page: the data CRC-32 first, then the rows
(:meth:`~repro.policies.trained.TrainedPolicy.check_columns`).
"""

from __future__ import annotations

import json
import os
import zlib
from pathlib import Path
from typing import Dict, Tuple, Union

import numpy as np

from repro.errors import ConfigurationError, LogFormatError
from repro.policies.trained import RuleColumns, TrainedPolicy
from repro.records import BINARY_HEADER, BINARY_POLICY_FORMAT, write_atomic

__all__ = [
    "BINARY_POLICY_FORMAT",
    "save_policy_binary",
    "load_policy_binary",
]

PathLike = Union[str, Path]

_MAGIC = b"RPROPOLB"
_CONTAINER_VERSION = 1
_ALIGN = 64

#: The data section's columns, in file order, with their exact dtypes.
_COLUMNS = {"keys": "<u8", "actions": "<u4", "costs": "<f8"}


def _align(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


def save_policy_binary(policy: TrainedPolicy, path: PathLike) -> int:
    """Write ``policy`` in the zero-copy binary format; returns rule count.

    The write is atomic (:func:`~repro.records.write_atomic`), so a
    reader — or a decision server hot-reloading from the same path —
    never observes a torn container, even while another save to the
    same path runs.
    """
    columns = policy.columns
    blobs = {
        name: np.asarray(getattr(columns, name), dtype=dtype)
        for name, dtype in _COLUMNS.items()
    }
    directory: Dict[str, Dict[str, object]] = {}
    # Offsets are relative to the start of the data section; the loader
    # adds the header-dependent data origin.
    offset = 0
    for name, array in blobs.items():
        offset = _align(offset)
        directory[name] = {
            "dtype": array.dtype.str,
            "shape": list(array.shape),
            "offset": offset,
        }
        offset += array.nbytes
    data = bytearray(offset)
    for name, array in blobs.items():
        start = int(directory[name]["offset"])  # type: ignore[arg-type]
        data[start : start + array.nbytes] = array.tobytes()

    header = {
        "format": BINARY_POLICY_FORMAT,
        "label": policy.name,
        "error_types": columns.error_types,
        "history_actions": columns.history_actions,
        "decided_actions": columns.decided_actions,
        "max_history": columns.max_history,
        "rule_count": len(policy),
        "arrays": directory,
        "data_crc32": zlib.crc32(bytes(data)),
    }
    header_bytes = json.dumps(header, sort_keys=True).encode("utf-8")
    prefix_len = len(_MAGIC) + 4 + 8 + len(header_bytes)
    data_origin = _align(prefix_len)

    write_atomic(path, (
        _MAGIC,
        _CONTAINER_VERSION.to_bytes(4, "little"),
        len(header_bytes).to_bytes(8, "little"),
        header_bytes,
        b"\x00" * (data_origin - prefix_len),
        bytes(data),
    ))
    return len(policy)


def _read_header(path: Path) -> Tuple[object, int, int]:
    """Parse the container prefix: (header, data-section origin, file
    size)."""
    with open(path, "rb") as handle:
        prefix = handle.read(len(_MAGIC) + 4)
        if len(prefix) < len(_MAGIC) + 4 or prefix[: len(_MAGIC)] != _MAGIC:
            raise LogFormatError(f"{path}: not a repro binary policy file")
        version = int.from_bytes(prefix[len(_MAGIC) :], "little")
        if version != _CONTAINER_VERSION:
            raise LogFormatError(
                f"{path}: unsupported container version {version} "
                f"(this build reads version {_CONTAINER_VERSION})"
            )
        header_len = int.from_bytes(handle.read(8), "little")
        # A corrupt length must not ask ``read`` for gigabytes.
        size = os.fstat(handle.fileno()).st_size
        if header_len > size - handle.tell():
            raise LogFormatError(f"{path}: truncated header")
        header_bytes = handle.read(header_len)
    try:
        header = json.loads(header_bytes.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise LogFormatError(f"{path}: bad header: {exc}") from None
    return header, _align(len(_MAGIC) + 12 + header_len), size


def load_policy_binary(
    path: PathLike, *, mmap: bool = True, verify: bool = False
) -> TrainedPolicy:
    """Load a policy saved by :func:`save_policy_binary`.

    With ``mmap=True`` (the default) the arrays are memory-mapped
    read-only: nothing beyond the header is read until queries touch it,
    and concurrent server workers share one set of physical pages.
    ``mmap=False`` reads the arrays into private memory instead —
    preferable when the file may be replaced *in place* by something
    other than this module's atomic writer.  ``verify=True`` checks the
    data section against the stored CRC-32 and then every row (reads
    every page).  A malformed container raises :class:`LogFormatError`
    naming ``path``.
    """
    path = Path(path)
    header, data_origin, size = _read_header(path)
    try:
        header = BINARY_HEADER.check("header", header)
        rule_count = header["rule_count"]
        arrays: Dict[str, np.ndarray] = {}
        for name, dtype_str in _COLUMNS.items():
            spec = header["arrays"][name]
            if spec["dtype"] != dtype_str or spec["shape"] != [rule_count]:
                raise ValueError(
                    f"column {name!r} must be {dtype_str} of shape "
                    f"[{rule_count}], got {spec['dtype']} {spec['shape']}"
                )
            dtype = np.dtype(dtype_str)
            offset = data_origin + spec["offset"]
            if offset + dtype.itemsize * rule_count > size:
                raise ValueError(f"column {name!r} runs past the end of the file")
            if mmap:
                arrays[name] = np.memmap(
                    path, dtype=dtype, mode="r", offset=offset, shape=(rule_count,)
                )
            else:
                with open(path, "rb") as handle:
                    handle.seek(offset)
                    raw = handle.read(dtype.itemsize * rule_count)
                arrays[name] = np.frombuffer(raw, dtype=dtype).reshape(rule_count)
        columns = RuleColumns(
            error_types=tuple(header["error_types"]),
            history_actions=tuple(header["history_actions"]),
            decided_actions=tuple(header["decided_actions"]),
            max_history=header["max_history"],
            **arrays,
        )
        policy = TrainedPolicy.from_columns(
            columns, label=header["label"], source_path=path
        )
    except (LogFormatError, ValueError, ConfigurationError) as exc:
        raise LogFormatError(f"{path}: {exc}") from None
    if verify:
        with open(path, "rb") as handle:
            handle.seek(data_origin)
            actual = zlib.crc32(handle.read(size - data_origin))
        expected = header["data_crc32"]
        if actual != expected:
            raise LogFormatError(
                f"{path}: data checksum mismatch "
                f"(stored {expected}, computed {actual})"
            )
        try:
            policy.check_columns()
        except ConfigurationError as exc:
            raise LogFormatError(f"{path}: {exc}") from None
    return policy
