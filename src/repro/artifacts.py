"""The artifact cache: substrate products persisted between processes.

``REPRO_PATHENGINE_CACHE`` names one directory for everything a process
can reuse from an earlier one over the same substrate: the path
engine's shortest-path matrices and the landmark calibration planes.
Unset means nothing is persisted.

Every artifact is a set of ``.npy`` files named by a content digest of
its inputs.  Files are written under a temporary name and moved into
place with ``os.replace``, so a reader sees a whole file or none.  A
reader checks each file's header (format, dtype, order, shape) and its
size against what it expects; any mismatch, a truncated or missing
file, or an unreadable directory reads as a miss, and the caller
recomputes.  Writing is best effort: a read-only or full directory
leaves the run uncached, never failed.
"""

from __future__ import annotations

import os
import tempfile
from io import BufferedReader
from typing import BinaryIO, Callable, Iterable, Iterator, Optional, Tuple

import numpy as np
from numpy.lib import format as npy_format

from . import config


def cache_dir() -> Optional[str]:
    """The artifact-cache directory, or None when persistence is off."""
    value = config.env_value(config.PATHENGINE_CACHE.name)
    assert value is None or isinstance(value, str)
    return value


def write_atomic(path: str, write: Callable[[BinaryIO], None]) -> bool:
    """Write ``path`` through a temporary file and ``os.replace``.

    Returns False, leaving no temporary behind, when the directory is
    read-only or full.
    """
    tmp_path = None
    try:
        directory = os.path.dirname(path) or "."
        os.makedirs(directory, exist_ok=True)
        handle, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
        with os.fdopen(handle, "wb") as stream:
            write(stream)
        os.replace(tmp_path, path)
        return True
    except OSError:
        if tmp_path is not None and os.path.exists(tmp_path):
            os.unlink(tmp_path)
        return False


def save_npy(path: str, array: np.ndarray) -> bool:
    """Persist one array as ``.npy`` (see :func:`write_atomic`)."""
    return write_atomic(path, lambda stream: np.save(stream, array))


def save_npy_chunks(path: str, shape: Tuple[int, ...], dtype: np.dtype,
                    chunks: Iterable[np.ndarray]) -> bool:
    """Persist a 2-D array given as consecutive row blocks.

    The whole array never exists in memory at once: the header comes
    from ``shape`` and each block is written as it arrives.
    """
    def write(stream: BinaryIO) -> None:
        npy_format.write_array_header_1_0(
            stream, {"descr": npy_format.dtype_to_descr(np.dtype(dtype)),
                     "fortran_order": False, "shape": shape})
        rows = 0
        for chunk in chunks:
            stream.write(np.ascontiguousarray(chunk, dtype=dtype).tobytes())
            rows += len(chunk)
        if rows != shape[0]:
            raise OSError(f"wrote {rows} rows of {shape[0]}")
    return write_atomic(path, write)


def _open_checked(path: str, shape: Tuple[int, ...], dtype: np.dtype
                  ) -> Optional[Tuple[BufferedReader, int]]:
    """Open a ``.npy`` whose header and size match; (stream, data offset)."""
    dtype = np.dtype(dtype)
    try:
        stream = open(path, "rb")
    except OSError:
        return None
    try:
        version = npy_format.read_magic(stream)
        if version == (1, 0):
            header = npy_format.read_array_header_1_0(stream)
        elif version == (2, 0):
            header = npy_format.read_array_header_2_0(stream)
        else:
            raise ValueError(f"unsupported .npy version {version}")
        offset = stream.tell()
        size = os.fstat(stream.fileno()).st_size
    except (OSError, ValueError):
        stream.close()
        return None
    found_shape, fortran_order, found_dtype = header
    expected = offset + int(np.prod(shape, dtype=np.int64)) * dtype.itemsize
    if (tuple(found_shape) != tuple(shape) or fortran_order
            or found_dtype != dtype or size != expected):
        stream.close()
        return None
    return stream, offset


def load_npy(path: str, shape: Tuple[int, ...], dtype: np.dtype,
             mmap: bool = False) -> Optional[np.ndarray]:
    """The array in ``path``, or None when it is missing or does not match.

    With ``mmap`` the array is a read-only memory map whose pages every
    process mapping the file shares.
    """
    opened = _open_checked(path, shape, dtype)
    if opened is None:
        return None
    stream, offset = opened
    with stream:
        if mmap:
            return np.memmap(stream, dtype=dtype, mode="r", offset=offset,
                             shape=shape)
        array = np.empty(shape, dtype=dtype)
        if stream.readinto(memoryview(array).cast("B")) != array.nbytes:
            return None
        return array


class ChunkReader:
    """Row blocks of a validated 2-D ``.npy``, read into reused scratch.

    The blocks are views of one bounded buffer, valid until the next
    block is read: a consumer copies what it keeps.
    """

    def __init__(self, stream: BufferedReader, shape: Tuple[int, ...],
                 dtype: np.dtype, rows_per_chunk: int):
        self._stream = stream
        self.shape = shape
        self._scratch = np.empty((max(1, min(rows_per_chunk, shape[0])),)
                                 + tuple(shape[1:]), dtype=dtype)

    def __iter__(self) -> Iterator[np.ndarray]:
        with self._stream:
            remaining = self.shape[0]
            while remaining:
                block = self._scratch[:min(remaining, len(self._scratch))]
                view = memoryview(block).cast("B")
                if self._stream.readinto(view) != block.nbytes:
                    raise OSError("artifact file shrank while read")
                remaining -= len(block)
                yield block

    def close(self) -> None:
        self._stream.close()


def open_npy_chunks(path: str, shape: Tuple[int, ...], dtype: np.dtype,
                    rows_per_chunk: int) -> Optional[ChunkReader]:
    """A :class:`ChunkReader` over ``path``, or None when it does not match."""
    opened = _open_checked(path, shape, dtype)
    if opened is None:
        return None
    return ChunkReader(opened[0], shape, dtype, rows_per_chunk)
