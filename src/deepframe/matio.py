"""Reading and writing dense vectors and matrices.

Two interchange formats, both documented in ``docs/formats.md``:

* a plain binary container: 8-byte magic ``DFMAT001``, a little-endian
  uint32 rank (1 or 2), one little-endian uint64 per dimension, then the
  payload as row-major little-endian float64;
* CSV, for small arrays a human wants to edit; one row per line, no
  header.

``load_array`` dispatches on filename extension so CLI users can pass
either format anywhere an array is expected.
"""

from __future__ import annotations

import csv
import struct
from pathlib import Path

import numpy as np

MAGIC = b"DFMAT001"
_HEADER = struct.Struct("<8sI")
_DIM = struct.Struct("<Q")


class MatrixIOError(ValueError):
    """A container file is malformed; the message says what and where."""


def _as_array(values, what: str) -> np.ndarray:
    arr = np.asarray(values, dtype=float)
    if arr.ndim not in (1, 2):
        raise MatrixIOError(f"{what} must be 1- or 2-dimensional, got rank {arr.ndim}")
    return arr


def write_matrix(path, values) -> None:
    """Write a vector or matrix to the binary container format."""
    arr = _as_array(values, "binary container payload")
    with open(path, "wb") as fh:
        fh.write(_HEADER.pack(MAGIC, arr.ndim))
        for dim in arr.shape:
            fh.write(_DIM.pack(dim))
        fh.write(np.ascontiguousarray(arr, dtype="<f8").tobytes())


def read_matrix(path) -> np.ndarray:
    """Read a vector or matrix from the binary container format."""
    blob = Path(path).read_bytes()
    if len(blob) < _HEADER.size:
        raise MatrixIOError(f"{path}: truncated header ({len(blob)} bytes)")
    magic, ndim = _HEADER.unpack_from(blob)
    if magic != MAGIC:
        raise MatrixIOError(f"{path}: bad magic {magic!r}, expected {MAGIC!r}")
    if ndim not in (1, 2):
        raise MatrixIOError(f"{path}: rank {ndim} not supported (expected 1 or 2)")
    offset = _HEADER.size
    if len(blob) < offset + ndim * _DIM.size:
        raise MatrixIOError(f"{path}: truncated dimension list")
    shape = []
    for _ in range(ndim):
        (dim,) = _DIM.unpack_from(blob, offset)
        shape.append(dim)
        offset += _DIM.size
    count = 1
    for dim in shape:
        count *= dim
    expected = offset + 8 * count
    if len(blob) != expected:
        raise MatrixIOError(
            f"{path}: payload is {len(blob) - offset} bytes, "
            f"expected {8 * count} for shape {tuple(shape)}"
        )
    data = np.frombuffer(blob, dtype="<f8", count=count, offset=offset)
    return data.reshape(shape).astype(float)


def write_csv(path, values) -> None:
    """Write a vector (one line) or matrix (one line per row) as CSV."""
    arr = _as_array(values, "CSV payload")
    rows = arr.reshape(1, -1) if arr.ndim == 1 else arr
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def read_csv(path) -> np.ndarray:
    """Read a CSV of numbers; a single line collapses to a vector."""
    rows: list[list[float]] = []
    with open(path, newline="") as fh:
        for lineno, row in enumerate(csv.reader(fh), start=1):
            if not row:
                continue
            try:
                rows.append([float(cell) for cell in row])
            except ValueError as exc:
                raise MatrixIOError(f"{path}:{lineno}: {exc}") from None
    if not rows:
        raise MatrixIOError(f"{path}: no numeric rows")
    width = len(rows[0])
    for lineno, row in enumerate(rows, start=1):
        if len(row) != width:
            raise MatrixIOError(
                f"{path}: row {lineno} has {len(row)} cells, expected {width}"
            )
    arr = np.array(rows, dtype=float)
    return arr[0] if arr.shape[0] == 1 else arr


def load_array(path) -> np.ndarray:
    """Load a vector or matrix, picking the format from the extension."""
    if str(path).lower().endswith(".csv"):
        return read_csv(path)
    return read_matrix(path)


def load_signals(path, expected_dim: int) -> np.ndarray:
    """Load one signal per row and check the ambient dimension.

    A single vector of length ``expected_dim`` is accepted and promoted
    to a one-row matrix. Signals with NaN or infinite entries are refused.
    """
    arr = load_array(path)
    if arr.ndim == 1:
        arr = arr.reshape(1, -1)
    if arr.shape[1] != expected_dim:
        raise MatrixIOError(
            f"{path}: signals have dimension {arr.shape[1]}, "
            f"but the frame expects {expected_dim}"
        )
    bad = np.nonzero(~np.all(np.isfinite(arr), axis=1))[0]
    if bad.size:
        raise MatrixIOError(f"{path}: signals {bad.tolist()} have non-finite entries")
    return arr


__all__ = [
    "MAGIC",
    "MatrixIOError",
    "load_array",
    "load_signals",
    "read_csv",
    "read_matrix",
    "write_csv",
    "write_matrix",
]
