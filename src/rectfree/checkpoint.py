"""Atomic checkpoints and the append-only row log.

A checkpoint captures a generator between rows — the only states the
public API can observe, so a mid-row snapshot cannot even be requested —
together with the cycle detector's cursor (tagged by algorithm), the
running content hash of all rows emitted so far, and the byte offset the
row log had reached.  Loading a checkpoint and generating ``t`` further
rows is bit-identical to never having stopped.

File layout, format version 2 (all integers little-endian):

* an 8-byte header: the 6-byte magic ``RFCKPT`` plus a 2-byte format
  version;
* six records, each an 8-byte length followed by that many payload
  bytes: the core integers (n, next row, frontier, rows emitted, log
  offset), the 32-byte running row hash, the live rows, the column
  weights, the detector tag, and the detector payload;
* a trailing 8-byte checksum: the low 8 bytes of SHA-256 over the header
  and records.

A windowed detector payload holds the window, the first ring row and
the ring's row count; then two packed blocks of signed integers, the
ring's diagonal offsets (n + 1 per row) and one lag k - l(k) per row;
then the candidate in flight, if any.  A packed block is its element
width (the smallest of 1, 2, 4 or 8 bytes that holds every value), its
byte length, and the elements.  The fingerprint table is not stored:
loading rebuilds it from the ring.  Version 1 stored every offset in 8
bytes and the table instead of the lags; it still loads, with an empty
ring and table and no candidate in flight, and is never written.

Writes go to a temporary file in the destination directory which is
fsynced and atomically renamed over the target, so a crash at any
instant leaves either the previous or the new checkpoint fully intact.

The row log is a separate append-only text file of ``k<TAB>j1,j2,...``
lines.  Its integrity is tracked by a chain hash: starting from 32 zero
bytes, each emitted line (with its newline) is absorbed as
``sha256(previous_digest + line_bytes)``.  A checkpoint stores the chain
value and the log byte offset it corresponds to, so a resume can verify
the prefix it relies on and discard any torn tail beyond it.

Every SHA-256 here comes from CPython's built-in implementation
(``_sha2``, or ``_sha256`` before 3.12), which gives the same digests as
:func:`hashlib.sha256` without loading OpenSSL's libcrypto, some 3.8 MiB
of a process.  Only an interpreter built without it falls back to
:mod:`hashlib`.
"""
from __future__ import annotations

import os
import stat
import struct
import sys
from array import array
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

from .errors import (CorruptCheckpointError, InvalidParameterError,
                     VersionMismatchError)
from .generator import GeneratorState, MAX_ORDER, parse_row_line, row_line
from .period import TYPECODES, DetectorSnapshot, ResumeState, narrowest

MAGIC = b"RFCKPT"
FORMAT_VERSION = 2
_READABLE_VERSIONS = (1, FORMAT_VERSION)  # only FORMAT_VERSION is written

#: Chain-hash seed for an empty row log.
EMPTY_ROW_HASH = b"\x00" * 32

#: Detector tags understood by this format version.
DETECTOR_NONE = "none"
DETECTOR_WINDOWED = "windowed-v1"

_Q = struct.Struct("<Q")   # unsigned 64-bit
_SQ = struct.Struct("<q")  # signed 64-bit
_I = struct.Struct("<I")   # unsigned 32-bit
_HDR = struct.Struct("<6sH")


@cache
def _hasher():
    """The package's one SHA-256 constructor: CPython's built-in
    ``sha256``, or :func:`hashlib.sha256` where the interpreter was built
    without it.  Callers on a per-row path bind it once rather than
    calling this per row."""
    try:
        from _sha2 import sha256  # CPython 3.12 and later
    except ImportError:
        try:
            from _sha256 import sha256  # CPython 3.10 and 3.11
        except ImportError:
            from hashlib import sha256
    return sha256


def chain_row_hash(digest: bytes, index: int, ones) -> bytes:
    """Absorb one emitted row into the running row-log chain hash.

    No CLI path calls it: :meth:`RowLog.append` chains its own lines.  It
    stays as the oracle of the chain while format-2 row logs can still be
    resumed."""
    return _hasher()(digest + row_line(index, ones)).digest()


@dataclass(frozen=True)
class Checkpoint:
    """Point-in-time image of a run, written and read atomically."""

    n: int
    next_k: int
    frontier_l: int
    rows_emitted: int
    live_rows: tuple[tuple[int, tuple[int, ...]], ...]
    col_weights: tuple[tuple[int, int], ...]
    row_hash: bytes          # 32-byte chain over all emitted log lines
    log_offset: int          # row-log bytes covered by row_hash
    detector: DetectorSnapshot | None
    format_version: int = FORMAT_VERSION

    @classmethod
    def capture(cls, state: GeneratorState, *, row_hash: bytes,
                log_offset: int,
                detector: DetectorSnapshot | None = None) -> "Checkpoint":
        """Snapshot a square-construction cursor between rows."""
        if state.params is None:
            raise InvalidParameterError(
                "only the square construction is checkpointable")
        if len(row_hash) != 32:
            raise InvalidParameterError("row_hash must be a 32-byte digest")
        if log_offset < 0:
            raise InvalidParameterError("log_offset must be >= 0")
        return cls(
            n=state.params.n,
            next_k=state.next_k,
            frontier_l=state.frontier_l,
            rows_emitted=state.rows_emitted,
            live_rows=tuple((i, ones) for i, ones in state._live),
            col_weights=tuple(sorted(state.col_weight.items())),
            row_hash=bytes(row_hash),
            log_offset=log_offset,
            detector=detector,
        )

    def restore_generator(self) -> GeneratorState:
        """Rebuild the generator; resumes bit-identically."""
        try:
            state = GeneratorState.from_snapshot(
                n=self.n, next_k=self.next_k, frontier_l=self.frontier_l,
                rows_emitted=self.rows_emitted, live_rows=self.live_rows)
        except InvalidParameterError as exc:
            raise CorruptCheckpointError(
                f"checkpoint state is not reachable: {exc}") from exc
        if tuple(sorted(state.col_weight.items())) != self.col_weights:
            raise CorruptCheckpointError(
                "stored column weights disagree with the live rows")
        return state

    def restore_resume(self) -> ResumeState:
        """Rebuild the period-detection cursor pair."""
        if self.detector is None:
            raise InvalidParameterError(
                "checkpoint carries no detector state")
        return ResumeState(generator=self.restore_generator(),
                           detector=self.detector)


# -- record encoding --------------------------------------------------------

def _enc_ints(*values: int) -> bytes:
    return b"".join(_Q.pack(v) for v in values)

def _enc_offsets(offsets) -> bytes:
    return _I.pack(len(offsets)) + b"".join(_SQ.pack(o) for o in offsets)

def _enc_packed(values: array) -> tuple[bytes, memoryview]:
    """Width and byte length, then the elements as a byte view, of
    :func:`~rectfree.period.narrowest` ``values``: a view of ``values``
    itself when it is packed that narrow already."""
    try:
        packed = narrowest(values)
    except OverflowError:
        raise InvalidParameterError(
            "a detector value does not fit in 8 bytes") from None
    if sys.byteorder == "big":
        packed = array(packed.typecode, packed)  # swap a copy, not values
        packed.byteswap()
    view = memoryview(packed).cast("B")
    return _Q.pack(packed.itemsize) + _Q.pack(len(view)), view


def _encode(cp: Checkpoint) -> list[list]:
    """The six records of ``cp``, each as a list of byte pieces (bytes
    or byte views) that are written one after another."""
    core = [_enc_ints(cp.n, cp.next_k, cp.frontier_l, cp.rows_emitted,
                      cp.log_offset)]
    live = [_Q.pack(len(cp.live_rows))]
    for i, ones in cp.live_rows:
        live.append(_Q.pack(i))
        live.append(_enc_offsets(ones))
    weights = [_Q.pack(len(cp.col_weights))]
    for c, w in cp.col_weights:
        weights.append(_Q.pack(c))
        weights.append(_I.pack(w))
    tag = [(DETECTOR_NONE if cp.detector is None
            else DETECTOR_WINDOWED).encode("utf-8")]
    det: list = []
    if cp.detector is not None:
        snap = cp.detector
        if snap.lags is None:
            raise InvalidParameterError(
                "a detector snapshot without lags cannot be written")
        if len(snap.ring) != len(snap.lags) * (cp.n + 1):
            raise InvalidParameterError(
                f"every ring row must hold {cp.n + 1} offsets")
        det.append(_enc_ints(snap.window, snap.ring_first, len(snap.lags)))
        det.extend(_enc_packed(snap.ring))
        det.extend(_enc_packed(snap.lags))
        if snap.candidate is None:
            det.append(_Q.pack(0))
        else:
            k0, p = snap.candidate
            det.append(_Q.pack(1) + _Q.pack(k0) + _Q.pack(p))
    return [core, [cp.row_hash], live, weights, tag, det]


class _Reader:
    """Strict cursor over one record's payload, a view of the file."""

    __slots__ = ("buf", "pos")

    def __init__(self, buf: memoryview):
        self.buf = buf
        self.pos = 0

    def take(self, size: int) -> memoryview:
        end = self.pos + size
        if size < 0 or end > len(self.buf):
            raise CorruptCheckpointError("record payload truncated")
        chunk = self.buf[self.pos:end]
        self.pos = end
        return chunk

    def u64(self) -> int:
        return _Q.unpack(self.take(8))[0]

    def s64(self) -> int:
        return _SQ.unpack(self.take(8))[0]

    def u32(self) -> int:
        return _I.unpack(self.take(4))[0]

    def offsets(self) -> tuple[int, ...]:
        count = self.u32()
        return tuple(self.s64() for _ in range(count))

    def packed(self, count: int) -> array:
        """Signed integers packed by width; there must be ``count``."""
        width = self.u64()
        code = TYPECODES.get(width)
        if code is None:
            raise CorruptCheckpointError(
                f"packed element width {width} is not 1, 2, 4 or 8")
        size = self.u64()
        if size != count * width:
            raise CorruptCheckpointError(
                f"packed block holds {size} bytes, expected {count} "
                f"elements of {width} bytes")
        values = array(code)
        values.frombytes(self.take(size))
        if sys.byteorder == "big":
            values.byteswap()
        return values

    def done(self) -> None:
        if self.pos != len(self.buf):
            raise CorruptCheckpointError(
                f"{len(self.buf) - self.pos} stray bytes in a record")


def _decode(records: list[memoryview], version: int) -> Checkpoint:
    """The checkpoint held in ``records``; it keeps no view of them."""
    if len(records) != 6:
        raise CorruptCheckpointError(
            f"expected 6 records, found {len(records)}")
    core = _Reader(records[0])
    n, next_k, frontier_l, rows_emitted, log_offset = (
        core.u64(), core.u64(), core.u64(), core.u64(), core.u64())
    core.done()
    if not 1 <= n <= MAX_ORDER:
        raise CorruptCheckpointError(f"order {n} is out of range")
    row_hash = bytes(records[1])
    if len(row_hash) != 32:
        raise CorruptCheckpointError("row hash record must be 32 bytes")
    live_r = _Reader(records[2])
    live = tuple((live_r.u64(), live_r.offsets())
                 for _ in range(live_r.u64()))
    live_r.done()
    w_r = _Reader(records[3])
    weights = tuple((w_r.u64(), w_r.u32()) for _ in range(w_r.u64()))
    w_r.done()
    try:
        tag = str(records[4], "utf-8")
    except UnicodeDecodeError as exc:
        raise CorruptCheckpointError("detector tag is not UTF-8") from exc
    detector: DetectorSnapshot | None = None
    if tag == DETECTOR_NONE:
        if records[5]:
            raise CorruptCheckpointError(
                "detector payload present without a detector tag")
    elif tag == DETECTOR_WINDOWED:
        d_r = _Reader(records[5])
        window, ring_first, ring_len = d_r.u64(), d_r.u64(), d_r.u64()
        if version == 1:
            # Rows without lags cannot be replayed: the detector resumes
            # with an empty ring and table, and no candidate in flight.
            for _ in range(ring_len):  # each row's 8-byte offsets
                d_r.take(8 * d_r.u32())
            for _ in range(d_r.u64()):  # the table
                d_r.take(40)
            ring_first, ring, lags = next_k, array("b"), array("b")
        else:
            ring = d_r.packed(ring_len * (n + 1))
            lags = d_r.packed(ring_len)
        cand_flag = d_r.u64()
        if cand_flag == 0:
            candidate = None
        elif cand_flag == 1:
            candidate = (d_r.u64(), d_r.u64())
        else:
            raise CorruptCheckpointError(
                f"detector candidate flag must be 0 or 1, got {cand_flag}")
        d_r.done()
        detector = DetectorSnapshot(
            window=window, ring_first=ring_first, ring=ring, lags=lags,
            candidate=None if version == 1 else candidate)
    else:
        raise CorruptCheckpointError(f"unknown detector tag {tag!r}")
    return Checkpoint(n=n, next_k=next_k, frontier_l=frontier_l,
                      rows_emitted=rows_emitted, live_rows=live,
                      col_weights=weights, row_hash=row_hash,
                      log_offset=log_offset, detector=detector,
                      format_version=version)


# -- file I/O ----------------------------------------------------------------

def save_checkpoint(checkpoint: Checkpoint, destination) -> int:
    """Atomically write ``checkpoint``; returns the byte count written.

    The temporary file lives in the destination directory and is fsynced
    before being renamed over the target, so an interrupted save leaves
    any previous checkpoint untouched.
    """
    destination = os.fspath(destination)
    records = _encode(checkpoint)
    directory = os.path.dirname(destination) or "."
    tmp = os.path.join(directory,
                       f".{os.path.basename(destination)}.{os.getpid()}.tmp")
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
        with open(fd, "wb") as fh:
            size = _write_body(fh, records)
            fh.flush()
            os.fsync(fd)
        os.replace(tmp, destination)
    except OSError:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    try:
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except OSError:
        pass  # the directory entry will still reach disk eventually
    return size


def _write_body(fh, records: list[list]) -> int:
    """Write the header, each record's length and pieces, and the
    checksum of all of them to ``fh``; returns the byte count.  Each
    piece goes to the file and to the hash as it is, without a copy."""
    pieces = [_HDR.pack(MAGIC, FORMAT_VERSION)]
    for record in records:
        pieces.append(_Q.pack(sum(map(len, record))))
        pieces.extend(record)
    digest = _hasher()()
    for piece in pieces:
        fh.write(piece)
        digest.update(piece)
    fh.write(digest.digest()[:8])
    return sum(map(len, pieces)) + 8


def load_checkpoint(source) -> Checkpoint:
    """Read and validate a checkpoint file.

    Raises :class:`CorruptCheckpointError` on any truncation, checksum
    mismatch or structural damage, and :class:`VersionMismatchError`
    when the file announces a format version this code does not speak —
    never a silent reinterpretation.
    """
    with open(os.fspath(source), "rb") as fh:
        data = fh.read()
    if len(data) < _HDR.size + 8:
        raise CorruptCheckpointError(
            f"file is {len(data)} bytes, shorter than any checkpoint")
    magic, version = _HDR.unpack_from(data, 0)
    if magic != MAGIC:
        raise CorruptCheckpointError(f"bad magic {magic!r}")
    if version not in _READABLE_VERSIONS:
        raise VersionMismatchError(
            f"checkpoint format version {version} is not supported "
            f"(this build reads versions 1 and {FORMAT_VERSION})")
    body = memoryview(data)[:-8]  # records are views of it, not copies
    if _hasher()(body).digest()[:8] != data[-8:]:
        raise CorruptCheckpointError("checksum mismatch")
    records: list[memoryview] = []
    pos = _HDR.size
    end = len(body)
    while pos < end:
        if pos + 8 > end:
            raise CorruptCheckpointError("record length field truncated")
        (length,) = _Q.unpack_from(body, pos)
        pos += 8
        if pos + length > end:
            raise CorruptCheckpointError("record payload truncated")
        records.append(body[pos:pos + length])
        pos += length
    return _decode(records, version)


def _lock(fd: int, name: str) -> None:
    """Take an exclusive advisory lock on ``fd`` for as long as it stays
    open, or raise :class:`InvalidParameterError` naming ``name`` at once
    when another process holds one.  Without ``fcntl`` (a platform that
    is not POSIX) nothing is locked."""
    try:
        import fcntl
    except ImportError:
        return
    try:
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
    except BlockingIOError:
        raise InvalidParameterError(
            f"{name} is in use by another process") from None


@contextmanager
def exclusive_lock(path, name: str):
    """Hold :func:`_lock` on ``path`` (created if missing, otherwise left
    as it is) for the block."""
    fd = os.open(os.fspath(path), os.O_RDONLY | os.O_CREAT, 0o644)
    try:
        _lock(fd, name)
        yield
    finally:
        os.close(fd)


# -- the row log -------------------------------------------------------------

class RowLog:
    """Append-only row log bound to a running chain hash.

    Opened either fresh (``offset=0``) or at a checkpoint's
    ``(offset, row_hash)``; in both cases the file is truncated to the
    offset, discarding any torn tail beyond the last state the paired
    checkpoint vouches for, after the retained prefix has been verified
    against the expected chain value.  The log holds an exclusive lock
    until it is closed: opening a log that another process is writing
    raises :class:`InvalidParameterError` and leaves the file as it is.

    With ``path=None`` the lines go to ``sys.stdout.buffer``, continuing
    the chain at ``(offset, row_hash)``: nothing is locked, scanned or
    truncated, syncing and closing only flush, and the byte stream is the
    log.  A path that opens as no regular file, a device such as
    ``/dev/null``, is written the same way, except that closing closes it.
    """

    def __init__(self, path, *, offset: int = 0,
                 row_hash: bytes = EMPTY_ROW_HASH):
        if offset and len(row_hash) != 32:
            raise InvalidParameterError("row_hash must be a 32-byte digest")
        self.offset = offset
        self.row_hash = bytes(row_hash) if offset else EMPTY_ROW_HASH
        self._sha256 = _hasher()
        if path is None:
            self.path = None
            sys.stdout.flush()  # text written before the first row
            self._fh = sys.stdout.buffer
            self._regular = False
            return
        self.path = os.fspath(path)
        self._fh = open(self.path, "a+b")
        self._regular = stat.S_ISREG(os.fstat(self._fh.fileno()).st_mode)
        if not self._regular:
            return
        try:
            _lock(self._fh.fileno(), f"row log {self.path}")
            if offset:
                actual = _scan_log(self._fh, offset)
                if actual != row_hash:
                    raise CorruptCheckpointError(
                        f"row log {self.path} does not reproduce the "
                        f"checkpointed chain hash at offset {offset}")
            self._fh.truncate(offset)
            self._fh.seek(0, os.SEEK_END)
        except BaseException:
            self._fh.close()
            raise

    def append(self, index: int, ones) -> None:
        line = row_line(index, ones)
        self._fh.write(line)
        self.row_hash = self._sha256(self.row_hash + line).digest()
        self.offset += len(line)

    def sync(self) -> None:
        """Flush buffers and fsync, making the log durable (a pipe or a
        device cannot be fsynced, so it is only flushed)."""
        self._fh.flush()
        if self._regular:
            os.fsync(self._fh.fileno())

    def close(self) -> None:
        if self.path is None:
            self._fh.flush()
        else:
            self._fh.close()

    def __enter__(self) -> "RowLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _scan_log(fh, upto: int) -> bytes:
    """The chain hash of the first ``upto`` bytes."""
    sha256 = _hasher()
    fh.seek(0)
    digest = EMPTY_ROW_HASH
    consumed = 0
    for line in fh:
        if consumed == upto:
            break
        consumed += len(line)
        if consumed > upto or not line.endswith(b"\n"):
            raise CorruptCheckpointError(
                f"row-log offset {upto} does not fall on a line boundary")
        digest = sha256(digest + line).digest()
    if consumed < upto:
        raise CorruptCheckpointError(
            f"row log holds {consumed} bytes, checkpoint expects {upto}")
    return digest


def log_prefix_hash(path, offset: int) -> bytes:
    """Recompute the chain hash of a row log's first ``offset`` bytes."""
    with open(os.fspath(path), "rb") as fh:
        return _scan_log(fh, offset)


def iter_row_log(path):
    """Yield :class:`SparseRow` values from a row log, in file order."""
    with open(os.fspath(path), "rb") as fh:
        for raw in fh:
            if not raw.endswith(b"\n"):
                return  # torn final line: not vouched for by anyone
            try:
                text = raw.decode("ascii")
            except UnicodeDecodeError as exc:
                raise InvalidParameterError(
                    f"row log {path!s} is not ASCII") from exc
            yield parse_row_line(text)
