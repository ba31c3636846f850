"""Checkpoint files, row logs, corruption defense, crash recovery."""
import dataclasses
import hashlib
import os
import random
import struct
import subprocess
import sys
import tracemalloc
from array import array
from pathlib import Path

import pytest

from _table_oracle import DictTable, packed_entries
from rectfree import (
    BudgetExhaustedError,
    Checkpoint,
    CorruptCheckpointError,
    EMPTY_ROW_HASH,
    GeneratorState,
    IncidenceMatrix,
    InvalidParameterError,
    RowLog,
    VersionMismatchError,
    chain_row_hash,
    detect_period,
    generate_prefix,
    iter_row_log,
    load_checkpoint,
    log_prefix_hash,
    new_generator,
    save_checkpoint,
)
from rectfree.checkpoint import _enc_packed, _hasher, row_line
from rectfree.cli import EXIT_IO, main
from rectfree.generator import format_row_line
from rectfree.period import _Detector

FIXTURES = Path(__file__).parent / "fixtures"


# ``period --checkpoint`` files: (n, window, rows, ring width, sha256).
PERIOD_PINS = [
    # a verification (k0, p) = (55, 16) in flight
    (3, 16, 130, 1,
     "6035818edf34518583e819df915d196d82eb110441145d04122c35c99ede0751"),
    (6, None, 20_000, 1,
     "a1631e17bff937a1c250ad75ddc70a211f28f6bb12e5b32f6413ed078552b652"),
    (16, 64, 250, 2,
     "70dc79d946ed6c0226c936d2cdfea69e7177e1f664c12fc432358acb7f35baa9"),
    # the snapshot cuts the ring to window + sigma + 1 = 257 rows
    (5, 16, 1200, 1,
     "b609a779313bd4ddeaa82c41bbd37b40c912e216b3fc712c10336623fb1100d7"),
]


def save_resume(resume, path):
    """Save a detection run's resume state as a period checkpoint."""
    save_checkpoint(Checkpoint.capture(
        resume.generator, row_hash=EMPTY_ROW_HASH, log_offset=0,
        detector=resume.detector), str(path))


def period_checkpoint(tmp_path, n, rows, window):
    """Save the resume state of a detection run cut after ``rows`` rows."""
    with pytest.raises(BudgetExhaustedError) as info:
        detect_period(n, rows, window=window)
    path = tmp_path / "det.ckpt"
    save_resume(info.value.resume, path)
    return path


def rewrite_records(path, edit, tail=b""):
    """Apply ``edit`` to a checkpoint's record list and put ``tail`` after
    the last record; recompute the checksum."""
    data = path.read_bytes()
    records, pos = [], 8
    while pos < len(data) - 8:
        (length,) = struct.unpack_from("<Q", data, pos)
        records.append(bytearray(data[pos + 8:pos + 8 + length]))
        pos += 8 + length
    edit(records)
    body = data[:8] + b"".join(struct.pack("<Q", len(r)) + bytes(r)
                               for r in records) + tail
    path.write_bytes(body + hashlib.sha256(body).digest()[:8])


def _set_u64(record, pos, value):
    struct.pack_into("<Q", record, pos, value)


def _bump_u32(record, pos):
    (value,) = struct.unpack_from("<I", record, pos)
    struct.pack_into("<I", record, pos, value + 1)


def _replace(record, payload):
    record[:] = payload


def _candidate_flag_at(detector) -> int:
    """Where the candidate flag sits in a format-2 detector payload: after
    window, first ring row, row count and two packed blocks."""
    (ring_size,) = struct.unpack_from("<Q", detector, 32)
    (lags_size,) = struct.unpack_from("<Q", detector, 48 + ring_size)
    return 56 + ring_size + lags_size


# Damage the checksum cannot see: (checkpoint kind, edit of the record
# list, bytes after the last record, message).  Records: 0 core integers,
# 1 row hash, 2 live rows, 3 column weights, 4 detector tag, 5 detector.
DAMAGE = [
    ("gen", lambda r: r.pop(), b"", "expected 6 records, found 5"),
    ("gen", lambda r: _set_u64(r[0], 0, 0), b"", "order 0 is out of range"),
    ("gen", lambda r: r[1].pop(), b"", "row hash record must be 32 bytes"),
    ("gen", lambda r: _replace(r[4], b"\xff"), b"",
     "detector tag is not UTF-8"),
    ("gen", lambda r: r[5].extend(bytes(8)), b"",
     "detector payload present without a detector tag"),
    ("period", lambda r: _replace(r[4], b"bogus"), b"",
     "unknown detector tag 'bogus'"),
    ("period", lambda r: _set_u64(r[5], _candidate_flag_at(r[5]), 2), b"",
     "candidate flag must be 0 or 1, got 2"),
    ("period", lambda r: _set_u64(r[5], 24, 3), b"",
     "packed element width 3 is not 1, 2, 4 or 8"),
    ("gen", lambda r: r[0].append(0), b"", "1 stray bytes in a record"),
    ("gen", lambda r: None, b"\x01\x02\x03", "record length field truncated"),
    ("gen", lambda r: None, struct.pack("<Q", 100) + b"abc",
     "record payload truncated"),
    ("gen", lambda r: _set_u64(r[2], 8, 1 << 40), b"",
     "checkpoint state is not reachable"),
    ("gen", lambda r: _bump_u32(r[3], 16), b"",
     "stored column weights disagree with the live rows"),
]


@pytest.fixture()
def saved(tmp_path):
    """A 777-row order-3 run: (checkpoint, checkpoint path, log path)."""
    gen = new_generator(3)
    digest = EMPTY_ROW_HASH
    log_path = tmp_path / "a.rows"
    with RowLog(str(log_path)) as log:
        for _ in range(777):
            row = gen.next_row()
            log.append(row.index, row.ones)
            digest = chain_row_hash(digest, row.index, row.ones)
        log.sync()
        assert log.row_hash == digest
        offset = log.offset
    checkpoint = Checkpoint.capture(gen, row_hash=digest, log_offset=offset)
    path = tmp_path / "a.ckpt"
    n_bytes = save_checkpoint(checkpoint, str(path))
    assert n_bytes == path.stat().st_size
    return checkpoint, path, log_path


class TestRoundTrip:
    def test_file_round_trip(self, saved):
        checkpoint, path, log_path = saved
        loaded = load_checkpoint(str(path))
        assert loaded == checkpoint
        assert log_prefix_hash(str(log_path), checkpoint.log_offset) \
            == checkpoint.row_hash

    def test_log_replay_matches_generator(self, saved):
        _, _, log_path = saved
        logged = [(row.index, row.ones) for row in iter_row_log(str(log_path))]
        straight = [(row.index, row.ones) for row in generate_prefix(3, 777)]
        assert logged == straight

    def test_restored_generator_continues_identically(self, saved):
        checkpoint, path, _ = saved
        resumed_gen = load_checkpoint(str(path)).restore_generator()
        resumed = [resumed_gen.next_row() for _ in range(423)]
        straight = generate_prefix(3, 1200)[777:]
        assert [(r.index, r.ones) for r in resumed] == \
               [(r.index, r.ones) for r in straight]

    def test_capture_leaves_generator_untouched(self):
        gen = new_generator(2)
        for _ in range(11):
            gen.next_row()
        before = (gen.next_k, gen.frontier_l, gen.rows_emitted, gen.live_rows)
        Checkpoint.capture(gen, row_hash=EMPTY_ROW_HASH, log_offset=0)
        assert (gen.next_k, gen.frontier_l, gen.rows_emitted,
                gen.live_rows) == before

    def test_capture_validation(self):
        gen = new_generator(1)
        gen.next_row()
        with pytest.raises(InvalidParameterError):
            Checkpoint.capture(gen, row_hash=b"short", log_offset=0)
        with pytest.raises(InvalidParameterError):
            Checkpoint.capture(gen, row_hash=EMPTY_ROW_HASH, log_offset=-1)

    def test_capture_rejects_generic_caps(self):
        # Only the square construction is checkpointable.
        generic = GeneratorState(params=None, row_cap=3, col_cap=2,
                                 max_len=100)
        generic.next_row()
        with pytest.raises(InvalidParameterError):
            Checkpoint.capture(generic, row_hash=EMPTY_ROW_HASH, log_offset=0)


class TestHasher:
    @pytest.mark.parametrize("data", [
        b"", row_line(7, (3, 5, 6)), bytes(range(256)) * 4096,
        memoryview(b"rectfree" * 1000)[3:-5]])
    def test_same_digests_as_hashlib(self, data):
        assert _hasher()(data).digest() == hashlib.sha256(data).digest()
        h = _hasher()()
        h.update(data)
        h.update(data)
        assert h.digest() == hashlib.sha256(bytes(data) * 2).digest()


class TestRowLog:
    @pytest.mark.parametrize("index, ones", [
        (1, (1,)), (7, (3, 5, 6)),
        (10 ** 9, tuple(range(10 ** 6, 10 ** 6 + 17))),
        (12, (1, 5, 9)), (13, (2, 6))])
    def test_row_line_is_the_format_row_line_text(self, index, ones):
        # Templates are cached per row width; widths may change between
        # calls.
        assert row_line(index, ones) == \
            (format_row_line(index, ones) + "\n").encode("ascii")
        assert chain_row_hash(EMPTY_ROW_HASH, index, ones) == hashlib.sha256(
            EMPTY_ROW_HASH + row_line(index, ones)).digest()

    def test_torn_tail_discarded_on_resume(self, saved):
        checkpoint, _, log_path = saved
        intact = log_path.read_bytes()
        with open(log_path, "ab") as fh:
            fh.write(b"778\t9,9,9,9")  # interrupted append, no newline
        with RowLog(str(log_path), offset=checkpoint.log_offset,
                    row_hash=checkpoint.row_hash) as log:
            assert log.offset == checkpoint.log_offset
            log.append(778, (9, 10, 11, 12))
        data = log_path.read_bytes()
        assert data.startswith(intact)
        assert data[len(intact):] == b"778\t9,10,11,12\n"

    def test_iter_skips_torn_final_line(self, saved):
        _, _, log_path = saved
        with open(log_path, "ab") as fh:
            fh.write(b"778\t9,9")
        rows = list(iter_row_log(str(log_path)))
        assert len(rows) == 777
        assert rows[-1].index == 777

    def test_iter_reads_a_sparse_matrix(self, tmp_path):
        matrix = IncidenceMatrix.from_rows(
            row.ones for row in generate_prefix(3, 40))
        path = tmp_path / "m.rows"
        path.write_text(matrix.to_sparse_text(), encoding="ascii")
        assert [(row.index, row.ones) for row in iter_row_log(path)] == \
            list(enumerate(matrix.rows, 1))

    def test_wrong_resume_hash_rejected(self, saved):
        checkpoint, _, log_path = saved
        with pytest.raises(CorruptCheckpointError):
            RowLog(str(log_path), offset=checkpoint.log_offset,
                   row_hash=hashlib.sha256(b"x").digest())

    def test_resume_offset_past_end_rejected(self, saved):
        checkpoint, _, log_path = saved
        with pytest.raises(CorruptCheckpointError):
            RowLog(str(log_path), offset=checkpoint.log_offset + 10_000,
                   row_hash=checkpoint.row_hash)


class TestDetectorCheckpoint:
    def test_round_trip_resume_finds_period(self, tmp_path):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 40)
        resume = info.value.resume
        checkpoint = Checkpoint.capture(
            resume.generator, row_hash=EMPTY_ROW_HASH, log_offset=0,
            detector=resume.detector)
        path = tmp_path / "det.ckpt"
        save_checkpoint(checkpoint, str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.detector == resume.detector
        result = detect_period(3, 200, resume=loaded.restore_resume())
        assert (result.pp, result.p) == (48, 16)

    @pytest.mark.parametrize("n, window, stops", [
        (3, 16, range(5, 140, 9)),
        (3, 64, (30, 70, 110, 139)),
        (4, 16, (3, 9, 20)),
        (5, 16, (50, 300, 301, 1200)),
        (5, 512, (700, 2000)),
        (6, 24, (100, 470, 2500)),
        (6, 1 << 17, (1500, 135_000)),
        (16, 64, (120, 250)),  # offsets and lags need two bytes
    ])
    def test_restored_table_equals_uninterrupted(self, tmp_path, n, window,
                                                 stops):
        """The table rebuilt at load is, entry for entry, the table of a
        detector that saw every row without a break (n = 16 ends in the
        restart shortcut at row 273).  The reference is fed row by row
        through ``push_row`` and ``table.record``, as ``detect_period``
        feeds its live detector.  The packed tables differ in slot order and
        key ring base, so both are read back as the key -> row map and
        the keys of the last ``window`` states, and checked against the
        dict table they replaced, fed the same keys."""
        gen = new_generator(n)
        ref = _Detector(window, gen.params)
        oracle = DictTable(window)
        resume = None
        path = tmp_path / "slice.ckpt"
        for stop in stops:
            with pytest.raises(BudgetExhaustedError) as info:
                detect_period(n, stop, window=window, resume=resume)
            save_resume(info.value.resume, path)
            resume = load_checkpoint(str(path)).restore_resume()
            while gen.rows_emitted < stop:
                k, ones = gen._advance()
                ref.push_row(ones[-1], tuple([j - k for j in ones]),
                             gen.frontier_l)
                key = (ref.poly, len(ref.deq), gen.next_k - gen.frontier_l)
                oracle.record(gen.next_k, *key)
                ref.table.record(gen.next_k, *key)
            det = _Detector.restore(resume.detector, resume.generator)
            newest = gen.next_k
            assert packed_entries(det.table, newest) == \
                packed_entries(ref.table, newest) == \
                (oracle.table, oracle.ages), stop
            assert (det.poly, det.deq) == (ref.poly, ref.deq), stop

    def test_ring_is_packed_and_table_not_stored(self, tmp_path):
        # Order 6: offsets and lags fit in one signed byte, so a ring row
        # costs n + 2 bytes; live rows and headers take under 4 KB.
        path = period_checkpoint(tmp_path, 6, 3000, 1 << 17)
        loaded = load_checkpoint(str(path))
        assert loaded.format_version == 2
        assert len(loaded.detector.ring) == 7 * len(loaded.detector.lags) \
            == 7 * 3000
        assert path.stat().st_size < 3000 * (7 + 1) + 4096

    @pytest.mark.parametrize("n, window, rows, width, sha", PERIOD_PINS)
    def test_period_checkpoint_bytes_are_pinned(self, tmp_path, capsys, n,
                                                window, rows, width, sha):
        """``period`` writes format 2 byte for byte as it did when the
        ring was a list of per-row tuples (the digests were taken then):
        packing the ring in memory does not touch the file."""
        path = tmp_path / "pin.ckpt"
        argv = ["period", "-n", str(n), "--max-rows", str(rows),
                "--checkpoint", str(path), "--progress-every", "0"]
        if window is not None:
            argv += ["--window", str(window)]
        assert main(argv) == 3
        data = path.read_bytes()
        assert hashlib.sha256(data).hexdigest() == sha
        snap = load_checkpoint(str(path)).detector
        assert snap.ring.itemsize == width
        assert (snap.candidate is not None) == (n == 3)
        assert len(snap.lags) == {3: 76, 5: 257}.get(n, rows)

    @pytest.mark.parametrize("n, window, rows, width, sha", PERIOD_PINS)
    def test_pinned_bytes_without_the_builtin_hash(
            self, tmp_path, capsys, monkeypatch, n, window, rows, width, sha):
        # As on an interpreter built without CPython's own SHA-256.
        monkeypatch.setitem(sys.modules, "_sha2", None)
        monkeypatch.setitem(sys.modules, "_sha256", None)
        _hasher.cache_clear()
        try:
            assert _hasher() is hashlib.sha256
            self.test_period_checkpoint_bytes_are_pinned(
                tmp_path, capsys, n, window, rows, width, sha)
        finally:
            _hasher.cache_clear()

    def test_wide_snapshot_arrays_are_written_narrow(self, tmp_path):
        # A ring that widened for a value it has since trimmed keeps its
        # wide arrays; the file still holds the narrowest packing.
        path = period_checkpoint(tmp_path, 6, 3000, 1 << 17)
        cp = load_checkpoint(str(path))
        snap = cp.detector
        assert snap.ring.itemsize == snap.lags.itemsize == 1
        wide = dataclasses.replace(cp, detector=dataclasses.replace(
            snap, ring=array("q", snap.ring), lags=array("i", snap.lags)))
        again = tmp_path / "wide.ckpt"
        save_checkpoint(wide, str(again))
        assert again.read_bytes() == path.read_bytes()

    def test_save_copies_no_detector_array(self, tmp_path):
        """The ring and lags go to the file from the snapshot's own
        arrays: saving allocates far less than they hold."""
        cp = load_checkpoint(str(period_checkpoint(tmp_path, 3, 100, 16)))
        rows = 250_000  # 1 MB of ring offsets, one byte each
        big = dataclasses.replace(cp, detector=dataclasses.replace(
            cp.detector, ring=array("b", bytes(4 * rows)),
            lags=array("b", bytes(rows)), candidate=None))
        path = tmp_path / "big.ckpt"
        tracemalloc.start()
        try:
            size = save_checkpoint(big, str(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert size == path.stat().st_size > 5 * rows
        assert peak < 5 * rows // 4
        back = load_checkpoint(str(path)).detector
        assert (back.ring, back.lags) == (big.detector.ring,
                                          big.detector.lags)

    def test_load_copies_no_record(self, tmp_path):
        """Records are parsed from views of the file's bytes: loading
        peaks near the file plus the arrays it returns, and keeps no view
        of the file."""
        cp = load_checkpoint(str(period_checkpoint(tmp_path, 3, 100, 16)))
        rows = 250_000  # 1 MB of ring offsets, one byte each
        big = dataclasses.replace(cp, detector=dataclasses.replace(
            cp.detector, ring=array("b", range(-50, 50)) * (4 * rows // 100),
            lags=array("b", bytes(rows)), candidate=None))
        path = tmp_path / "big.ckpt"
        size = save_checkpoint(big, str(path))
        tracemalloc.start()
        try:
            back = load_checkpoint(str(path))
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 2.3 * size
        # The arrays (a little over-allocated), not the file's bytes too.
        assert kept < 1.2 * size
        assert back == big
        assert type(back.row_hash) is bytes

    @pytest.mark.parametrize("code", "hiq")
    def test_enc_packed_picks_the_narrowest_width(self, code):
        def packed(values):  # the pieces as they are written
            return b"".join(_enc_packed(array(code, values)))

        assert packed([-128, 0, 127]) == \
            struct.pack("<QQ", 1, 3) + struct.pack("<3b", -128, 0, 127)
        assert packed([300, -2]) == \
            struct.pack("<QQ", 2, 4) + struct.pack("<2h", 300, -2)
        assert packed([]) == struct.pack("<QQ", 1, 0)

    def test_version1_file_resumes(self, tmp_path):
        # Written by format version 1 (order 3, window 16, 100 rows, a
        # verification in flight).  It holds no lags, so it decodes to an
        # empty ring and table and no candidate in flight, which can only
        # delay detection.
        loaded = load_checkpoint(str(FIXTURES / "period-n3-w16-v1.ckpt"))
        assert loaded.format_version == 1
        snap = loaded.detector
        assert (snap.window, snap.ring_first) == (16, loaded.next_k)
        assert len(snap.ring) == len(snap.lags) == 0
        assert snap.candidate is None
        result = detect_period(3, 1000, window=16,
                               resume=loaded.restore_resume())
        assert (result.pp, result.p, result.rows_examined) == (48, 16, 187)
        # A budget exhausted after the resume is saved as version 2.
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(3, 120, window=16, resume=loaded.restore_resume())
        path = tmp_path / "again.ckpt"
        save_resume(info.value.resume, path)
        assert path.read_bytes()[6:8] == (2).to_bytes(2, "little")
        result = detect_period(
            3, 1000, window=16,
            resume=load_checkpoint(str(path)).restore_resume())
        assert (result.pp, result.p) == (48, 16)

    def test_version1_file_saves_as_version2(self, tmp_path):
        path = tmp_path / "v2.ckpt"
        save_checkpoint(
            load_checkpoint(str(FIXTURES / "period-n3-w16-v1.ckpt")),
            str(path))
        loaded = load_checkpoint(str(path))
        assert loaded.format_version == 2
        result = detect_period(3, 1000, window=16,
                               resume=loaded.restore_resume())
        assert (result.pp, result.p, result.rows_examined) == (48, 16, 187)

    def test_restore_resume_needs_detector(self, saved):
        checkpoint, _, _ = saved
        assert checkpoint.detector is None
        with pytest.raises(InvalidParameterError):
            checkpoint.restore_resume()


class TestCorruptionDefense:
    def test_flipped_byte_rejected(self, saved, tmp_path):
        _, path, _ = saved
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0x40
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(str(bad))

    def test_every_truncation_rejected(self, saved, tmp_path):
        _, path, _ = saved
        blob = path.read_bytes()
        bad = tmp_path / "bad.ckpt"
        for cut in range(0, len(blob), 97):
            bad.write_bytes(blob[:cut])
            with pytest.raises(CorruptCheckpointError):
                load_checkpoint(str(bad))

    def test_future_version_rejected(self, saved, tmp_path):
        _, path, _ = saved
        blob = bytearray(path.read_bytes())
        blob[6:8] = (99).to_bytes(2, "little")
        blob[-8:] = hashlib.sha256(bytes(blob[:-8])).digest()[:8]
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(VersionMismatchError):
            load_checkpoint(str(bad))

    def test_bad_magic_rejected(self, saved, tmp_path):
        _, path, _ = saved
        blob = bytearray(path.read_bytes())
        blob[0] ^= 0xFF
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(bytes(blob))
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(str(bad))

    def test_trailing_garbage_rejected(self, saved, tmp_path):
        _, path, _ = saved
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(path.read_bytes() + b"zz")
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(str(bad))

    def test_ring_blob_disagreeing_with_row_count_rejected(self, tmp_path):
        path = period_checkpoint(tmp_path, 3, 100, 16)

        def drop_a_row(records):
            detector = records[5]
            (rows,) = struct.unpack_from("<Q", detector, 16)
            struct.pack_into("<Q", detector, 16, rows - 1)

        rewrite_records(path, drop_a_row)
        with pytest.raises(CorruptCheckpointError):
            load_checkpoint(str(path))

    @pytest.mark.parametrize("kind, edit, tail, match", DAMAGE,
                             ids=[case[3] for case in DAMAGE])
    def test_damage_under_a_valid_checksum(self, saved, tmp_path, capsys,
                                           kind, edit, tail, match):
        if kind == "gen":
            path = tmp_path / "bad.ckpt"
            path.write_bytes(saved[1].read_bytes())
            argv = ["gen", "-n", "3", "--rows", "800", "--out",
                    str(tmp_path / "more.rows")]
        else:
            path = period_checkpoint(tmp_path, 3, 130, 16)
            argv = ["period", "-n", "3", "--window", "16"]
        rewrite_records(path, edit, tail)
        with pytest.raises(CorruptCheckpointError, match=match):
            load_checkpoint(str(path)).restore_generator()
        assert main(argv + ["--checkpoint", str(path),
                            "--progress-every", "0"]) == EXIT_IO
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert match in err

    @pytest.mark.parametrize("field, value, match", [
        ("lags", None, "without lags"),
        ("ring", array("b", [0]), "must hold 4 offsets"),
    ])
    def test_encode_refuses_a_malformed_snapshot(self, tmp_path, field,
                                                 value, match):
        good = load_checkpoint(str(period_checkpoint(tmp_path, 3, 130, 16)))
        bad = dataclasses.replace(good, detector=dataclasses.replace(
            good.detector, **{field: value}))
        target = tmp_path / "never.ckpt"
        with pytest.raises(InvalidParameterError, match=match):
            save_checkpoint(bad, str(target))
        assert not target.exists()

    def test_missing_file_is_oserror(self, tmp_path):
        with pytest.raises(OSError):
            load_checkpoint(str(tmp_path / "absent.ckpt"))


class TestAtomicSave:
    def test_failed_replace_leaves_no_temp_behind(self, saved, tmp_path):
        checkpoint, _, _ = saved
        target = tmp_path / "occupied"
        target.mkdir()  # os.replace onto a non-empty dir fails
        (target / "keep").write_text("x")
        with pytest.raises(OSError):
            save_checkpoint(checkpoint, str(target))
        assert (target / "keep").read_text() == "x"
        leftovers = [p for p in tmp_path.iterdir() if ".tmp" in p.name]
        assert leftovers == []

    def test_missing_parent_directory_is_oserror(self, saved, tmp_path):
        checkpoint, _, _ = saved
        with pytest.raises(OSError):
            save_checkpoint(checkpoint, str(tmp_path / "no" / "dir.ckpt"))

    def test_overwrite_replaces_older_checkpoint(self, saved, tmp_path):
        checkpoint, _, _ = saved
        path = tmp_path / "b.ckpt"
        save_checkpoint(checkpoint, str(path))
        gen = new_generator(3)
        for _ in range(900):
            gen.next_row()
        newer = Checkpoint.capture(gen, row_hash=EMPTY_ROW_HASH, log_offset=0)
        save_checkpoint(newer, str(path))
        assert load_checkpoint(str(path)) == newer


class TestScale:
    def test_order6_fifty_thousand_rows(self, tmp_path):
        with pytest.raises(BudgetExhaustedError) as info:
            detect_period(6, 50_000)
        resume = info.value.resume
        checkpoint = Checkpoint.capture(
            resume.generator, row_hash=EMPTY_ROW_HASH, log_offset=0,
            detector=resume.detector)
        path = tmp_path / "n6.ckpt"
        save_checkpoint(checkpoint, str(path))
        restored = load_checkpoint(str(path))
        assert restored == checkpoint
        gen = restored.restore_generator()
        resumed = [gen.next_row() for _ in range(100)]
        straight = generate_prefix(6, 50_100)[50_000:]
        assert [(r.index, r.ones) for r in resumed] == \
               [(r.index, r.ones) for r in straight]


class TestCrashRecovery:
    def test_sigkill_storm_preserves_the_row_log(self, tmp_path):
        """Kill the generator mid-run repeatedly; the resumed log must
        equal an uninterrupted run's byte for byte."""
        def command(log, ckpt):
            return [sys.executable, "-m", "rectfree", "gen", "-n", "3",
                    "--rows", "60000", "--out", str(log),
                    "--checkpoint", str(ckpt),
                    "--checkpoint-every-rows", "2000",
                    "--checkpoint-every-seconds", "9999",
                    "--progress-every", "0"]

        env = {k: v for k, v in os.environ.items()
               if k != "RECTFREE_CHECKPOINT_DIR"}
        reference = subprocess.run(
            command(tmp_path / "ref.rows", tmp_path / "ref.ckpt"),
            capture_output=True, timeout=120, env=env)
        assert reference.returncode == 0, reference.stderr
        expected = (tmp_path / "ref.rows").read_bytes()

        log, ckpt = tmp_path / "run.rows", tmp_path / "run.ckpt"
        rng = random.Random(0x5EED)
        completed = False
        for _ in range(8):
            proc = subprocess.Popen(command(log, ckpt),
                                    stdout=subprocess.DEVNULL,
                                    stderr=subprocess.DEVNULL, env=env)
            try:
                proc.wait(timeout=rng.uniform(0.1, 0.45))
                completed = proc.returncode == 0
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            if completed:
                break
        if not completed:
            final = subprocess.run(command(log, ckpt), capture_output=True,
                                   text=True, timeout=120, env=env)
            assert final.returncode == 0, final.stderr
            assert "rows: 60000" in final.stdout
        assert log.read_bytes() == expected

    def test_completed_run_is_idempotent(self, tmp_path):
        env = {k: v for k, v in os.environ.items()
               if k != "RECTFREE_CHECKPOINT_DIR"}
        cmd = [sys.executable, "-m", "rectfree", "gen", "-n", "2",
               "--rows", "50", "--out", str(tmp_path / "x.rows"),
               "--checkpoint", str(tmp_path / "x.ckpt"),
               "--progress-every", "0"]
        first = subprocess.run(cmd, capture_output=True, timeout=60, env=env)
        assert first.returncode == 0
        data = (tmp_path / "x.rows").read_bytes()
        again = subprocess.run(cmd, capture_output=True, timeout=60, env=env)
        assert again.returncode == 0
        assert (tmp_path / "x.rows").read_bytes() == data
