"""End-to-end command-line behavior: outputs, exit codes, resume."""
import dataclasses
import itertools
import json
import os
import re
import signal
import stat
import subprocess
import sys
import threading
import time
import tracemalloc
import weakref
from array import array
from importlib import import_module
from pathlib import Path

import pytest

import rectfree
from rectfree import (GeneratorState, IncidenceMatrix, InvalidParameterError,
                      InvariantViolationError, generate_prefix,
                      load_checkpoint, log_prefix_hash, save_checkpoint)
from rectfree import cli, period
from rectfree.generator import row_line
from rectfree.period import _Detector
from rectfree.cli import (
    EXIT_BUDGET,
    EXIT_INTERNAL,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VIOLATION,
    main,
)

A1_12_TEXT = ("1\t1,2\n2\t1,3\n3\t2,3\n4\t4,5\n5\t4,6\n6\t5,6\n"
              "7\t7,8\n8\t7,9\n9\t8,9\n10\t10,11\n11\t10,12\n12\t11,12\n")
FANO = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
        (3, 4, 7), (3, 5, 6)]
TRIANGLE_TEXT = "1\t1,2\n2\t1,3\n3\t2,3\n"

PERIOD2_REPORT = """\
n=2 pp=0 p=7
band breadth b: 4
longest row span l_max: 7
empty-frontier shortcut: yes
rows examined: 7
minimal fold multiplier m: 2 (folded size 14)
"""
PERIOD3_REPORT = """\
n=3 pp=48 p=16
band breadth b: 4
longest row span l_max: 9
empty-frontier shortcut: no
rows examined: 80
minimal fold multiplier m: 2 (folded size 32)
"""


@pytest.fixture(autouse=True)
def no_ambient_checkpoint_dir(monkeypatch):
    monkeypatch.delenv("RECTFREE_CHECKPOINT_DIR", raising=False)


def fano_file(tmp_path):
    path = tmp_path / "fano.rows"
    path.write_text(IncidenceMatrix.from_rows(FANO).to_sparse_text(),
                    encoding="ascii")
    return path


class TestGen:
    def test_rows_to_stdout(self, capsys):
        assert main(["gen", "-n", "1", "--rows", "12"]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == A1_12_TEXT
        assert "rows: 12" in captured.err

    def test_rows_to_file_with_report(self, tmp_path, capsys):
        out = tmp_path / "a.rows"
        code = main(["gen", "-n", "1", "--rows", "12", "--out", str(out),
                     "--progress-every", "0"])
        assert code == EXIT_OK
        assert out.read_text(encoding="ascii") == A1_12_TEXT
        captured = capsys.readouterr()
        assert f"row log: {out}" in captured.out
        assert "rows: 12" in captured.out

    def test_checkpoint_resume_extends_the_same_log(self, tmp_path, capsys):
        out, ckpt = tmp_path / "a.rows", tmp_path / "a.ckpt"
        base = ["gen", "-n", "1", "--out", str(out), "--checkpoint",
                str(ckpt), "--progress-every", "0"]
        assert main(base + ["--rows", "7"]) == EXIT_OK
        assert ckpt.exists()
        assert main(base + ["--rows", "12"]) == EXIT_OK
        assert out.read_text(encoding="ascii") == A1_12_TEXT
        captured = capsys.readouterr()
        assert f"checkpoint: {ckpt}" in captured.out

    def test_stdout_stream_resumes_as_a_virtual_log(self, tmp_path, capsys):
        ckpt = tmp_path / "a.ckpt"
        base = ["gen", "-n", "1", "--checkpoint", str(ckpt),
                "--progress-every", "0"]
        assert main(base + ["--rows", "7"]) == EXIT_OK
        first = capsys.readouterr().out
        assert main(base + ["--rows", "12"]) == EXIT_OK
        second = capsys.readouterr().out
        assert first + second == A1_12_TEXT

    def test_completed_target_emits_nothing_new(self, tmp_path, capsys):
        out, ckpt = tmp_path / "a.rows", tmp_path / "a.ckpt"
        base = ["gen", "-n", "2", "--out", str(out), "--checkpoint",
                str(ckpt), "--progress-every", "0"]
        assert main(base + ["--rows", "30"]) == EXIT_OK
        data = out.read_bytes()
        assert main(base + ["--rows", "30"]) == EXIT_OK
        assert out.read_bytes() == data

    @pytest.mark.parametrize("argv", [
        ["gen", "-n", "0", "--rows", "5"],
        ["gen", "-n", "65", "--rows", "5"],
        ["gen", "-n", "2", "--rows", "0"],
        ["gen", "-n", "2", "--rows", "-3"],
    ])
    def test_usage_errors(self, argv, capsys):
        assert main(argv) == EXIT_USAGE
        assert "error:" in capsys.readouterr().err

    def test_wrong_order_checkpoint_rejected(self, tmp_path, capsys):
        ckpt = tmp_path / "a.ckpt"
        assert main(["gen", "-n", "2", "--rows", "7", "--checkpoint",
                     str(ckpt), "--progress-every", "0"]) == EXIT_OK
        capsys.readouterr()
        code = main(["gen", "-n", "3", "--rows", "7", "--checkpoint",
                     str(ckpt), "--progress-every", "0"])
        assert code == EXIT_USAGE
        assert "order 2, not 3" in capsys.readouterr().err

    def test_each_row_is_saved_at_most_once(self, tmp_path, capsys,
                                            monkeypatch):
        saved = []
        original = cli.save_checkpoint

        def counting(checkpoint, path):
            saved.append(checkpoint.rows_emitted)
            return original(checkpoint, path)

        monkeypatch.setattr(cli, "save_checkpoint", counting)
        base = ["gen", "-n", "2", "--out", str(tmp_path / "a.rows"),
                "--checkpoint", str(tmp_path / "a.ckpt"),
                "--progress-every", "0"]
        assert main(base + ["--rows", "30",
                            "--checkpoint-every-rows", "10"]) == EXIT_OK
        assert saved == [10, 20, 30]
        assert main(base + ["--rows", "35",
                            "--checkpoint-every-rows", "10"]) == EXIT_OK
        assert saved == [10, 20, 30, 35]
        assert main(base + ["--rows", "38", "--checkpoint-every-rows",
                            "1000", "--checkpoint-every-seconds",
                            "1e-9"]) == EXIT_OK
        assert saved == [10, 20, 30, 35, 36, 37, 38]
        # A target already reached still rewrites the checkpoint once.
        assert main(base + ["--rows", "38"]) == EXIT_OK
        assert saved == [10, 20, 30, 35, 36, 37, 38, 38]
        assert (tmp_path / "a.rows").read_text(encoding="ascii") == \
            "".join(f"{r.index}\t{','.join(map(str, r.ones))}\n"
                    for r in generate_prefix(2, 38))

    def test_progress_lines_go_to_stderr(self, tmp_path, capsys):
        out = tmp_path / "a.rows"
        assert main(["gen", "-n", "3", "--rows", "2000", "--out", str(out),
                     "--progress-every", "1e-9"]) == EXIT_OK
        captured = capsys.readouterr()
        assert "gen n=3: " in captured.err and "rows/s" in captured.err
        assert captured.out == f"rows: 2000\nrow log: {out}\n"

    def test_env_var_names_the_default_checkpoint(self, tmp_path, capsys,
                                                  monkeypatch):
        monkeypatch.setenv("RECTFREE_CHECKPOINT_DIR", str(tmp_path))
        out = tmp_path / "a.rows"
        assert main(["gen", "-n", "2", "--rows", "7", "--out", str(out),
                     "--progress-every", "0"]) == EXIT_OK
        expected = tmp_path / "gen-n2.ckpt"
        assert expected.exists()
        assert f"checkpoint: {expected}" in capsys.readouterr().out

    @pytest.mark.parametrize("existing_log", [True, False])
    @pytest.mark.parametrize("checkpoint", ["same path", "relative path",
                                            "env var", "lock sidecar",
                                            "env var lock sidecar"])
    def test_out_that_is_its_own_checkpoint_is_refused(
            self, tmp_path, capsys, monkeypatch, checkpoint, existing_log):
        # The checkpoint is gen-n2.ckpt; --out names it or its lock file.
        monkeypatch.chdir(tmp_path)
        sidecar = checkpoint.endswith("lock sidecar")
        log = tmp_path / ("gen-n2.ckpt.lock" if sidecar else "gen-n2.ckpt")
        base = ["gen", "-n", "2", "--out", str(log), "--progress-every", "0"]
        if existing_log:
            assert main(base + ["--rows", "5"]) == EXIT_OK
        if checkpoint.startswith("env var"):
            monkeypatch.setenv("RECTFREE_CHECKPOINT_DIR", str(tmp_path))
        else:
            base += ["--checkpoint", str(log) if checkpoint == "same path"
                     else "gen-n2.ckpt"]
        before = sorted((p.name, p.read_bytes()) for p in tmp_path.iterdir())
        capsys.readouterr()
        assert main(base + ["--rows", "8"]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and err.count("\n") == 1
        assert ("lock sidecar" in err) == sidecar
        assert sorted((p.name, p.read_bytes())
                      for p in tmp_path.iterdir()) == before

    def test_checkpoint_hard_linked_to_out_is_refused(self, tmp_path, capsys):
        # Another name for the same file: realpath differs, samefile does not.
        log, link = tmp_path / "g.rows", tmp_path / "g.ckpt"
        base = ["gen", "-n", "2", "--out", str(log), "--progress-every", "0"]
        assert main(base + ["--rows", "5"]) == EXIT_OK
        os.link(log, link)
        before = log.read_bytes()
        capsys.readouterr()
        assert main(base + ["--rows", "8", "--checkpoint", str(link)]) \
            == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("error: --out ") and err.count("\n") == 1
        assert log.read_bytes() == before

    @pytest.mark.skipif(not stat.S_ISCHR(os.stat(os.devnull).st_mode),
                        reason="the null device is not a character device")
    def test_out_to_the_null_device_is_written_as_stdout(self, tmp_path,
                                                         capsys):
        # A device takes neither truncate nor fsync; both used to exit 5.
        base = ["gen", "-n", "2", "--out", os.devnull, "--progress-every",
                "0"]
        ckpt = ["--checkpoint", str(tmp_path / "a.ckpt")]
        assert main(base + ["--rows", "5"]) == EXIT_OK
        assert main(base + ckpt + ["--rows", "5"]) == EXIT_OK
        assert main(base + ckpt + ["--rows", "9"]) == EXIT_OK
        assert capsys.readouterr().out.endswith(
            f"rows: 9\nrow log: {os.devnull}\ncheckpoint: {ckpt[1]}\n")


    @pytest.mark.skipif(not hasattr(os, "mkfifo"), reason="no FIFOs here")
    def test_out_to_a_fifo_is_written_as_stdout(self, tmp_path, capsys):
        # A FIFO cannot seek, so a read-write open of it used to exit 5.
        fifo = tmp_path / "rows.fifo"
        os.mkfifo(fifo)
        got = []
        reader = threading.Thread(target=lambda: got.append(
            fifo.read_bytes()))
        reader.start()
        try:
            code = main(["gen", "-n", "2", "--rows", "9", "--out", str(fifo),
                         "--checkpoint", str(tmp_path / "f.ckpt"),
                         "--progress-every", "0"])
        finally:
            try:  # a reader still waiting for a writer sees end of file
                os.close(os.open(fifo, os.O_WRONLY | os.O_NONBLOCK))
            except OSError:  # no reader is left
                pass
            reader.join(timeout=30)
        assert code == EXIT_OK
        assert got == [b"".join(row_line(r.index, r.ones)
                                for r in generate_prefix(2, 9))]
        assert capsys.readouterr().out == \
            f"rows: 9\nrow log: {fifo}\ncheckpoint: {tmp_path / 'f.ckpt'}\n"

class TestPeriod:
    def test_order2_report(self, capsys):
        assert main(["period", "-n", "2", "--progress-every", "0"]) == EXIT_OK
        assert capsys.readouterr().out == PERIOD2_REPORT

    def test_order3_report(self, capsys):
        assert main(["period", "-n", "3", "--progress-every", "0"]) == EXIT_OK
        assert capsys.readouterr().out == PERIOD3_REPORT

    def test_progress_lines_go_to_stderr(self, capsys):
        assert main(["period", "-n", "3", "--progress-every", "0"]) == EXIT_OK
        quiet = capsys.readouterr()
        assert main(["period", "-n", "3", "--progress-every", "1e-9"]) \
            == EXIT_OK
        loud = capsys.readouterr()
        assert loud.out == quiet.out == PERIOD3_REPORT
        assert "period n=3: " in loud.err and "rows/s" not in quiet.err

    def test_budget_exhaustion_without_checkpoint(self, capsys):
        code = main(["period", "-n", "6", "--max-rows", "2000",
                     "--progress-every", "0"])
        assert code == EXIT_BUDGET
        out = capsys.readouterr().out
        assert "n=6 budget exhausted after 2000 rows" in out
        assert "checkpoint" not in out

    def test_budget_exhaustion_leaves_resumable_checkpoint(self, tmp_path,
                                                           capsys):
        ckpt = tmp_path / "p6.ckpt"
        base = ["period", "-n", "6", "--checkpoint", str(ckpt),
                "--checkpoint-every-rows", "1000", "--progress-every", "0"]
        assert main(base + ["--max-rows", "3000"]) == EXIT_BUDGET
        out = capsys.readouterr().out
        assert "after 3000 rows" in out
        assert f"resumable checkpoint: {ckpt}" in out
        assert ckpt.exists()
        # Resuming continues the TOTAL row count, not a fresh budget.
        assert main(base + ["--max-rows", "6000"]) == EXIT_BUDGET
        assert "after 6000 rows" in capsys.readouterr().out

    def test_checkpointed_run_still_finds_the_period(self, tmp_path, capsys):
        ckpt = tmp_path / "p3.ckpt"
        base = ["period", "-n", "3", "--checkpoint", str(ckpt),
                "--checkpoint-every-rows", "25", "--progress-every", "0"]
        assert main(base + ["--max-rows", "60"]) == EXIT_BUDGET
        capsys.readouterr()
        assert main(base + ["--max-rows", "1000"]) == EXIT_OK
        out = capsys.readouterr().out
        assert out.startswith("n=3 pp=48 p=16\n")
        assert "rows examined: 80" in out

    def test_sliced_run_prints_what_an_unsliced_run_prints(self, tmp_path,
                                                          capsys):
        # Ten-row slices cut every verification (2p + sigma = 86 rows)
        # after the 16-row window has moved past its first row.
        base = ["period", "-n", "3", "--window", "16", "--max-rows", "5000",
                "--progress-every", "0"]
        assert main(base) == EXIT_OK
        whole = capsys.readouterr().out
        ckpt = tmp_path / "p3.ckpt"
        assert main(base + ["--checkpoint", str(ckpt),
                            "--checkpoint-every-rows", "10"]) == EXIT_OK
        assert capsys.readouterr().out == whole
        assert "pp=48 p=16" in whole

    def test_sliced_across_calls_prints_what_an_unsliced_run_prints(
            self, tmp_path, capsys):
        # Each call resumes from the file, raising --max-rows by 3, so the
        # detector is rebuilt from the file at every call, five times
        # between the anchor at row 64 and its return at row 80.
        base = ["period", "-n", "3", "--window", "16",
                "--progress-every", "0"]
        assert main(base + ["--max-rows", "5000"]) == EXIT_OK
        whole = capsys.readouterr().out
        ckpt = tmp_path / "p3.ckpt"
        in_flight = 0
        for budget in range(3, 5000, 3):
            code = main(base + ["--max-rows", str(budget),
                                "--checkpoint", str(ckpt)])
            if code == EXIT_OK:
                break
            assert code == EXIT_BUDGET
            capsys.readouterr()
            # An anchor past pp = 48 whose return, p = 16 rows on, is
            # still to come.
            in_flight += any(48 < a < budget < a + 16 for a, _, _ in
                             load_checkpoint(str(ckpt)).detector.anchors)
        assert capsys.readouterr().out == whole
        assert in_flight == 5

    def test_version1_checkpoint_resumes(self, tmp_path, capsys):
        # Format 1 resumes with an empty ring and no anchors, so the
        # first anchor is at row 112 and returns at row 128, not 80.
        ckpt = tmp_path / "v1.ckpt"
        ckpt.write_bytes((Path(__file__).parent / "fixtures"
                          / "period-n3-w16-v1.ckpt").read_bytes())
        assert main(["period", "-n", "3", "--checkpoint", str(ckpt),
                     "--progress-every", "0"]) == EXIT_OK
        assert capsys.readouterr().out == PERIOD3_REPORT.replace(
            "rows examined: 80", "rows examined: 128")

    def test_restore_runs_only_when_resuming(self, tmp_path, capsys,
                                             monkeypatch):
        restores = []
        original = _Detector.resume

        def counting(cls, snap, gen):
            restores.append(gen.rows_emitted)
            return original(snap, gen)

        monkeypatch.setattr(_Detector, "resume", classmethod(counting))
        base = ["period", "-n", "3", "--window", "16", "--checkpoint",
                str(tmp_path / "p3.ckpt"), "--checkpoint-every-rows", "7",
                "--progress-every", "0"]
        assert main(base + ["--max-rows", "60"]) == EXIT_BUDGET
        assert restores == []
        assert main(base + ["--max-rows", "1000"]) == EXIT_OK
        assert restores == [60]
        assert capsys.readouterr().out.endswith(PERIOD3_REPORT)

    @pytest.mark.skipif(sys.version_info < (3, 11), reason=(
        "CPython 3.10 keeps call arguments on the caller's stack for the "
        "whole call"))
    def test_resumed_run_frees_the_loaded_ring(self, tmp_path, capsys,
                                               monkeypatch):
        base = ["period", "-n", "3", "--window", "16", "--checkpoint",
                str(tmp_path / "p3.ckpt")]
        assert main(base + ["--max-rows", "40", "--progress-every", "0"]) \
            == EXIT_BUDGET
        rings, alive = [], []
        original = cli.load_checkpoint

        def loading(path):
            cp = original(path)
            rings.append(weakref.ref(cp.detector.ring))
            return cp

        detect = cli.detect_period

        def probing(n, max_rows, *, window, resume, cadence):
            # Pass the resume state on as cli does, holding no name on it.
            resume = [resume]
            return detect(n, max_rows, window=window, resume=resume.pop(),
                          cadence=cadence, on_row=lambda k, ones:
                          alive.append(rings[0]() is not None))

        monkeypatch.setattr(cli, "load_checkpoint", loading)
        monkeypatch.setattr(cli, "detect_period", probing)
        assert main(base + ["--max-rows", "45"]) == EXIT_BUDGET
        assert len(rings) == 1
        assert alive == [False] * 5

    @pytest.mark.parametrize("n, window, rows, cadences", [
        (3, 16, 79, (7, 1000)), (6, 1 << 17, 3000, (997,))])
    def test_final_checkpoint_does_not_depend_on_the_cadence(
            self, tmp_path, capsys, n, window, rows, cadences):
        def final_bytes(name, budgets, extra=()):
            ckpt = tmp_path / name
            for budget in budgets:
                assert main(["period", "-n", str(n), "--window", str(window),
                             "--max-rows", str(budget), "--checkpoint",
                             str(ckpt), "--progress-every", "0", *extra]) \
                    == EXIT_BUDGET
            return ckpt.read_bytes()

        whole = final_bytes("whole.ckpt", [rows])
        # Resumed calls rebuild the detector from the file each time.
        assert final_bytes("sliced.ckpt",
                           [rows // 3, 2 * rows // 3, rows]) == whole
        for every in cadences:
            assert final_bytes(f"every{every}.ckpt", [rows],
                               ["--checkpoint-every-rows", str(every)]) \
                == whole

    def test_slices_between_an_anchor_and_its_return(self, tmp_path,
                                                     capsys):
        # The anchor at row 64 returns at row 80.  A cut at any row in
        # between leaves the checkpoint at row 79 byte for byte as one
        # run leaves it, and the resumed run prints the same report.
        base = ["period", "-n", "3", "--window", "16",
                "--progress-every", "0", "--checkpoint"]
        whole = tmp_path / "whole.ckpt"
        assert main(base + [str(whole), "--max-rows", "79"]) == EXIT_BUDGET
        for cut in range(64, 80):
            ckpt = tmp_path / f"cut{cut}.ckpt"
            for budget in (cut, 79):
                assert main(base + [str(ckpt), "--max-rows", str(budget)]) \
                    == EXIT_BUDGET
            assert ckpt.read_bytes() == whole.read_bytes(), cut
            capsys.readouterr()
            assert main(base + [str(ckpt)]) == EXIT_OK
            assert capsys.readouterr().out == PERIOD3_REPORT

    def test_a_window_below_the_period_prints_the_period(self, capsys):
        assert main(["period", "-n", "3", "--window", "8",
                     "--progress-every", "0"]) == EXIT_OK
        assert capsys.readouterr().out == PERIOD3_REPORT

    def test_row_and_seconds_cadences_are_honoured(self, tmp_path, capsys,
                                                   monkeypatch):
        saved = []
        original = cli.save_checkpoint

        def counting(checkpoint, path):
            saved.append(checkpoint.rows_emitted)
            return original(checkpoint, path)

        monkeypatch.setattr(cli, "save_checkpoint", counting)
        base = ["period", "-n", "3", "--max-rows", "70", "--checkpoint",
                str(tmp_path / "p3.ckpt"), "--progress-every", "0"]
        assert main(base + ["--checkpoint-every-rows", "30"]) == EXIT_BUDGET
        assert saved == [30, 60, 70]
        (tmp_path / "p3.ckpt").unlink()
        saved.clear()
        assert main(base + ["--checkpoint-every-rows", "1000000",
                            "--checkpoint-every-seconds", "1e-9"]) \
            == EXIT_BUDGET
        assert saved == list(range(1, 71))
        assert "budget exhausted after 70 rows" in capsys.readouterr().out

    def test_ring_disagreeing_with_the_generator_is_io_error(self, tmp_path,
                                                             capsys):
        ckpt = tmp_path / "p3.ckpt"
        base = ["period", "-n", "3", "--checkpoint", str(ckpt),
                "--progress-every", "0"]
        assert main(base + ["--max-rows", "60"]) == EXIT_BUDGET
        good = load_checkpoint(str(ckpt))
        # Every offset of the last ring row (n + 1 = 4 of them) moves by 1.
        bad = array(good.detector.ring.typecode, good.detector.ring)
        bad[-4:] = array(bad.typecode, [o + 1 for o in bad[-4:]])
        save_checkpoint(dataclasses.replace(
            good, detector=dataclasses.replace(good.detector, ring=bad)),
            str(ckpt))
        capsys.readouterr()
        assert main(base + ["--max-rows", "1000"]) == EXIT_IO
        assert "live rows" in capsys.readouterr().err

    def test_generator_checkpoint_cannot_seed_period(self, tmp_path, capsys):
        ckpt = tmp_path / "gen.ckpt"
        assert main(["gen", "-n", "3", "--rows", "50", "--checkpoint",
                     str(ckpt), "--progress-every", "0"]) == EXIT_OK
        capsys.readouterr()
        code = main(["period", "-n", "3", "--checkpoint", str(ckpt),
                     "--progress-every", "0"])
        assert code == EXIT_USAGE
        assert "cannot seed" in capsys.readouterr().err

    def test_period_checkpoint_cannot_seed_gen(self, tmp_path, capsys):
        ckpt = tmp_path / "p.ckpt"
        out = tmp_path / "out.rows"
        assert main(["period", "-n", "3", "--max-rows", "30", "--checkpoint",
                     str(ckpt), "--progress-every", "0"]) == EXIT_BUDGET
        before = ckpt.read_bytes()
        capsys.readouterr()
        code = main(["gen", "-n", "3", "--rows", "35", "--checkpoint",
                     str(ckpt), "--out", str(out), "--progress-every", "0"])
        assert code == EXIT_USAGE
        assert "cannot seed" in capsys.readouterr().err
        assert ckpt.read_bytes() == before
        assert not out.exists()

    def test_resume_keeps_the_checkpoint_window(self, tmp_path, capsys):
        ckpt = tmp_path / "w.ckpt"
        base = ["period", "-n", "3", "--checkpoint", str(ckpt),
                "--progress-every", "0"]
        assert main(base + ["--window", "16", "--max-rows", "60"]) \
            == EXIT_BUDGET
        before = ckpt.read_bytes()
        capsys.readouterr()
        # A resume may not claim window 4 for a window-16 state.
        assert main(base + ["--window", "4", "--max-rows", "1000"]) \
            == EXIT_USAGE
        err = capsys.readouterr().err
        assert "--window 4" in err and "window 16" in err
        assert ckpt.read_bytes() == before
        # Without --window, or with the same one, the resume uses 16.
        assert main(base + ["--window", "16", "--max-rows", "70"]) \
            == EXIT_BUDGET
        capsys.readouterr()
        assert main(base + ["--max-rows", "1000"]) == EXIT_OK
        assert capsys.readouterr().out == PERIOD3_REPORT

    def test_window_help_names_the_default(self, capsys):
        assert main(["period", "--help"]) == EXIT_OK
        assert "default 2^17" in capsys.readouterr().out


def run_cli(argv, timeout=30):
    env = {k: v for k, v in os.environ.items()
           if k != "RECTFREE_CHECKPOINT_DIR"}
    return subprocess.run([sys.executable, "-m", "rectfree"] + argv,
                          capture_output=True, text=True, timeout=timeout,
                          env=env)


class TestOneWriter:
    """A run holds its checkpoint and row log; a second writer exits 2
    at once and touches neither file."""

    @staticmethod
    def gen_argv(tmp_path, rows, log="w.rows", ckpt="w.ckpt"):
        return ["gen", "-n", "6", "--rows", str(rows), "--out",
                str(tmp_path / log), "--checkpoint", str(tmp_path / ckpt),
                "--checkpoint-every-rows", "5000", "--progress-every", "0"]

    @staticmethod
    def hold(path):
        fcntl = pytest.importorskip("fcntl")
        fd = os.open(path, os.O_RDONLY | os.O_CREAT)
        fcntl.flock(fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
        return fd

    def test_two_gen_processes_on_one_log(self, tmp_path, capsys):
        pytest.importorskip("fcntl")
        log = tmp_path / "w.rows"
        env = {k: v for k, v in os.environ.items()
               if k != "RECTFREE_CHECKPOINT_DIR"}
        first = subprocess.Popen(
            [sys.executable, "-m", "rectfree"]
            + self.gen_argv(tmp_path, 60_000),
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        try:
            while first.poll() is None and \
                    (not log.exists() or log.stat().st_size == 0):
                time.sleep(0.005)
            first.send_signal(signal.SIGSTOP)  # hold it mid-run
            assert first.poll() is None, "the first run ended too soon"
            ckpt = tmp_path / "w.ckpt"
            before = (log.read_bytes(),
                      ckpt.read_bytes() if ckpt.exists() else None)
            second = run_cli(self.gen_argv(tmp_path, 60_000))
            assert second.returncode == EXIT_USAGE, second.stderr
            assert f"checkpoint {ckpt} is in use" in second.stderr
            assert (log.read_bytes(),
                    ckpt.read_bytes() if ckpt.exists() else None) == before
        finally:
            first.send_signal(signal.SIGCONT)
            out, err = first.communicate(timeout=120)
        assert first.returncode == EXIT_OK, err
        assert main(self.gen_argv(tmp_path, 60_000, "ref.rows", "ref.ckpt")) \
            == EXIT_OK
        assert log.read_bytes() == (tmp_path / "ref.rows").read_bytes()
        assert (tmp_path / "w.ckpt").read_bytes() == \
            (tmp_path / "ref.ckpt").read_bytes()

    @pytest.mark.parametrize("kind", ["gen", "period"])
    def test_busy_checkpoint_is_left_alone(self, tmp_path, capsys, kind):
        argv = (self.gen_argv(tmp_path, 300) if kind == "gen" else
                ["period", "-n", "6", "--max-rows", "300", "--checkpoint",
                 str(tmp_path / "w.ckpt"), "--progress-every", "0"])
        expected = EXIT_OK if kind == "gen" else EXIT_BUDGET
        assert main(argv) == expected
        capsys.readouterr()
        files = sorted(tmp_path.iterdir())
        before = [f.read_bytes() for f in files]
        fd = self.hold(tmp_path / "w.ckpt.lock")
        try:
            assert main(argv[:4] + ["600"] + argv[5:]) == EXIT_USAGE
        finally:
            os.close(fd)
        err = capsys.readouterr().err
        assert f"checkpoint {tmp_path / 'w.ckpt'} is in use" in err
        assert sorted(tmp_path.iterdir()) == files
        assert [f.read_bytes() for f in files] == before
        assert main(argv[:4] + ["600"] + argv[5:]) == expected

    def test_busy_row_log_is_left_alone(self, tmp_path, capsys):
        log = tmp_path / "w.rows"
        log.write_bytes(b"1\t1,2\n")  # not a valid order-6 log either
        fd = self.hold(log)
        try:
            assert main(self.gen_argv(tmp_path, 300)) == EXIT_USAGE
        finally:
            os.close(fd)
        assert f"row log {log} is in use" in capsys.readouterr().err
        assert log.read_bytes() == b"1\t1,2\n"
        assert not (tmp_path / "w.ckpt").exists()


CADENCE_REFUSALS = [("--checkpoint-every-rows", "0"),
                    ("--checkpoint-every-rows", "-3"),
                    ("--checkpoint-every-seconds", "0"),
                    ("--checkpoint-every-seconds", "nan"),
                    ("--progress-every", "-1"),
                    ("--progress-every", "nan")]


class TestCadenceFlags:
    """A checkpoint cadence that never advances, or a negative or nan
    progress interval, is refused before any checkpoint is read, and the
    file is left byte-for-byte untouched."""

    @staticmethod
    def command(kind, tmp_path, rows):
        if kind == "gen":
            return ["gen", "-n", "3", "--rows", str(rows), "--out",
                    str(tmp_path / "w.rows"), "--checkpoint",
                    str(tmp_path / "w.ckpt"), "--progress-every", "0"]
        return ["period", "-n", "3", "--max-rows", str(rows),
                "--checkpoint", str(tmp_path / "w.ckpt"),
                "--progress-every", "0"]

    @pytest.mark.parametrize("kind", ["gen", "period"])
    @pytest.mark.parametrize("flag,value", CADENCE_REFUSALS)
    def test_refused_on_resume(self, tmp_path, kind, flag, value):
        first = run_cli(self.command(kind, tmp_path, 20)
                        + ["--checkpoint-every-rows", "10"])
        assert first.returncode in (EXIT_OK, EXIT_BUDGET), first.stderr
        ckpt = tmp_path / "w.ckpt"
        before = ckpt.read_bytes()
        again = run_cli(self.command(kind, tmp_path, 1000) + [flag, value])
        assert again.returncode == EXIT_USAGE
        assert flag in again.stderr
        assert ckpt.read_bytes() == before

    @pytest.mark.parametrize("kind", ["gen", "period"])
    @pytest.mark.parametrize("flag,value", CADENCE_REFUSALS)
    def test_refused_on_a_fresh_run(self, tmp_path, capsys, kind, flag,
                                    value):
        assert main(self.command(kind, tmp_path, 20) + [flag, value]) \
            == EXIT_USAGE
        assert flag in capsys.readouterr().err
        assert not (tmp_path / "w.ckpt").exists()
        assert not (tmp_path / "w.rows").exists()


class TestProgress:
    """Progress lines come from the cadence checks, not from a per-row
    callback, and report the rate of the rows this run generated."""

    @pytest.mark.parametrize("argv", [
        ["gen", "-n", "3", "--out", "a.rows", "--rows"],
        ["period", "-n", "6", "--max-rows"]])
    def test_resumed_rate_counts_only_this_runs_rows(
            self, tmp_path, capsys, monkeypatch, argv):
        argv = [str(tmp_path / a) if a.endswith(".rows") else a
                for a in argv]
        ckpt = ["--checkpoint", str(tmp_path / "a.ckpt")]
        assert main(argv + ["2000", "--progress-every", "0"] + ckpt) \
            in (EXIT_OK, EXIT_BUDGET)
        capsys.readouterr()
        ticks = itertools.count()  # each clock read is one second later
        monkeypatch.setattr(period, "monotonic", lambda: float(next(ticks)))
        assert main(argv + ["2010", "--progress-every", "1e-9"] + ckpt) \
            in (EXIT_OK, EXIT_BUDGET)
        lines = re.findall(r"n=\d+: (\d+) rows, (\d+) rows/s",
                           capsys.readouterr().err)
        # One line per row (period checks none at its budget row).
        rows = [int(rows) for rows, _ in lines]
        assert rows == list(range(2001, 2001 + len(rows))) and len(rows) >= 9
        # Ten rows over at least one second each: at most 10 rows/s, not
        # the 2001 or more that dividing the row index would give.
        assert all(int(rate) <= 10 for _, rate in lines)

    @pytest.mark.parametrize("argv", [
        ["gen", "-n", "3", "--rows", "200"],
        ["period", "-n", "6", "--max-rows", "200"]])
    def test_a_row_cadence_without_checkpoint_checks_nothing(
            self, capsys, monkeypatch, argv):
        # With no checkpoint to save and no progress to print, nothing
        # falls due: the loop reads the clock at its start and its first
        # check, not on each row past the row cadence.
        reads = []
        monkeypatch.setattr(period, "monotonic",
                            lambda: reads.append(1) or 0.0)
        assert main(argv + ["--checkpoint-every-rows", "10",
                            "--progress-every", "0"]) in (EXIT_OK,
                                                          EXIT_BUDGET)
        assert len(reads) <= 2

    @pytest.mark.parametrize("argv", [["period", "-n", "3"],
                                      ["fold", "-n", "3"]])
    def test_default_heartbeat_passes_no_row_callback(self, capsys,
                                                      monkeypatch, argv):
        calls = []
        detect = cli.detect_period
        monkeypatch.setattr(cli, "detect_period", lambda *a, **kw:
                            calls.append(kw) or detect(*a, **kw))
        assert main(argv) == EXIT_OK
        assert len(calls) == 1 and "on_row" not in calls[0]
        assert calls[0]["cadence"].interval == 10


class TestFold:
    def test_compact_p1_golden(self, capsys):
        code = main(["fold", "-n", "1", "--compact", "--format", "p1"])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert captured.out == "P1\n3 3\n110\n101\n011\n"
        assert "n=1 compact plane: 3 x 3, p=3" in captured.err

    def test_default_fold_summary_and_shape(self, capsys):
        assert main(["fold", "-n", "3"]) == EXIT_OK
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert len(lines) == 32
        assert lines[:3] == ["1\t1,2,4,30", "2\t1,3,5,31", "3\t2,5,6,32"]
        assert ("n=3 fold: 32 x 32, pp=48 p=16 m=2 p_bar=32 v=80"
                in captured.err)

    def test_unproven_multiplier_refused_then_allowed(self, tmp_path,
                                                      capsys):
        assert main(["fold", "-n", "3", "-m", "1"]) == EXIT_VIOLATION
        assert "allow_unproven" in capsys.readouterr().err
        out = tmp_path / "e3.rows"
        code = main(["fold", "-n", "3", "-m", "1", "--allow-unproven",
                     "--out", str(out)])
        assert code == EXIT_OK
        captured = capsys.readouterr()
        assert "n=3 fold: 16 x 16" in captured.out
        assert f"matrix: {out}" in captured.out
        first = out.read_text(encoding="ascii").splitlines()[0]
        assert first == "1\t1,2,4,14"

    def test_compact_requires_zero_preperiod(self, capsys):
        assert main(["fold", "-n", "3", "--compact"]) == EXIT_USAGE
        assert "preperiod 0" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["fold", "-n", "3"],
        ["fold", "-n", "16", "--compact", "--format", "p1"]])
    def test_fold_generates_each_row_once(self, argv, capsys, monkeypatch):
        # Every row comes from the detection pass: none is regenerated.
        advances = []
        results = []
        advance = GeneratorState._advance
        detect = cli.detect_period
        monkeypatch.setattr(GeneratorState, "_advance",
                            lambda self: advances.append(1) or advance(self))
        monkeypatch.setattr(cli, "detect_period", lambda *a, **kw:
                            results.append(detect(*a, **kw)) or results[-1])
        assert main(argv) == EXIT_OK
        assert len(results) == 1
        assert len(advances) == results[0].rows_examined > 0

    def test_progress_goes_to_stderr_only(self, capsys):
        assert main(["fold", "-n", "3", "--progress-every", "0"]) == EXIT_OK
        quiet = capsys.readouterr()
        assert "rows/s" not in quiet.err
        assert main(["fold", "-n", "3", "--progress-every", "1e-9"]) \
            == EXIT_OK
        loud = capsys.readouterr()
        assert loud.out == quiet.out
        assert "fold n=3: " in loud.err
        assert loud.err.endswith(quiet.err)

    def test_fold_budget_exhaustion_propagates(self, capsys):
        assert main(["fold", "-n", "6", "--max-rows", "2000"]) == EXIT_BUDGET
        assert "error:" in capsys.readouterr().err


class TestVerify:
    def test_a_row_log_is_a_matrix_file(self, tmp_path, capsys):
        log = tmp_path / "f.rows"
        assert main(["gen", "-n", "2", "--rows", "7", "--out", str(log),
                     "--progress-every", "0"]) == EXIT_OK
        capsys.readouterr()
        assert main(["verify", "-n", "2", str(log), "--aut"]) == EXIT_OK
        assert capsys.readouterr().out == (
            "configuration 7_3\n"
            "projective plane of order 2\n"
            "automorphisms: 168 (point/line bijections; dualities not "
            "counted)\n")

    def test_fano_full_report(self, tmp_path, capsys):
        path = fano_file(tmp_path)
        code = main(["verify", str(path), "-n", "2", "--aut", "--iso", "2"])
        assert code == EXIT_OK
        assert capsys.readouterr().out == (
            "configuration 7_3\n"
            "projective plane of order 2\n"
            "automorphisms: 168 (point/line bijections; dualities not "
            "counted)\n"
            "isomorphic to the order-2 reference plane: yes\n")

    def test_order16_plane_group_within_five_seconds(self, tmp_path,
                                                     capsys):
        # |PGammaL(3, 16)| by theorem; the search ran for minutes.
        plane = tmp_path / "p16.rows"
        assert main(["fold", "-n", "16", "--compact", "--out",
                     str(plane)]) == EXIT_OK
        capsys.readouterr()
        started = time.perf_counter()
        assert main(["verify", str(plane), "-n", "16", "--aut"]) == EXIT_OK
        assert time.perf_counter() - started < 5.0
        assert capsys.readouterr().out == (
            "configuration 273_17\n"
            "projective plane of order 16\n"
            "automorphisms: 17108582400 (point/line bijections; dualities "
            "not counted)\n")

    def test_violation_reported_with_witness(self, tmp_path, capsys):
        rows = list(FANO)
        rows[0] = (1, 2, 4)  # point 3 loses a line
        path = tmp_path / "bad.rows"
        path.write_text(IncidenceMatrix.from_rows(rows).to_sparse_text(),
                        encoding="ascii")
        assert main(["verify", str(path), "-n", "2"]) == EXIT_VIOLATION
        assert capsys.readouterr().out == (
            "violation of axiom (iii): point 3 lies on 2 lines, expected 3\n"
            "witness: (3, 2)\n")

    def test_negative_iso_answer_fails(self, tmp_path, capsys):
        path = fano_file(tmp_path)
        code = main(["verify", str(path), "-n", "2", "--iso", "3"])
        assert code == EXIT_VIOLATION
        out = capsys.readouterr().out
        assert "isomorphic to the order-3 reference plane: no" in out

    def test_triangle_with_levi_export(self, tmp_path, capsys):
        path = tmp_path / "tri.rows"
        path.write_text(TRIANGLE_TEXT, encoding="ascii")
        dot = tmp_path / "tri.dot"
        code = main(["verify", str(path), "-n", "1", "--levi", str(dot)])
        assert code == EXIT_OK
        out = capsys.readouterr().out
        assert "configuration 3_2\nprojective plane: no\n" in out
        assert f"levi graph: {dot}" in out
        assert dot.read_text(encoding="ascii") == (
            "graph levi {\n"
            "  p1 -- l1;\n  p2 -- l1;\n"
            "  p1 -- l2;\n  p3 -- l2;\n"
            "  p2 -- l3;\n  p3 -- l3;\n"
            "}\n")

    def test_p1_input_accepted(self, tmp_path, capsys):
        path = tmp_path / "tri.p1"
        path.write_text("P1\n3 3\n110\n101\n011\n", encoding="ascii")
        assert main(["verify", str(path), "-n", "1"]) == EXIT_OK
        assert "configuration 3_2" in capsys.readouterr().out

    @pytest.mark.parametrize("text", ["", "P1\n0 0\n"])
    def test_empty_matrix_is_refused(self, tmp_path, capsys, text):
        path = tmp_path / "empty.txt"
        path.write_text(text, encoding="ascii")
        assert main(["verify", str(path), "-n", "3"]) == EXIT_VIOLATION
        assert capsys.readouterr().out == (
            "violation of axiom (ii): the matrix has no lines; a "
            "configuration with k = 4 has at least 13 lines\n"
            "witness: (0,)\n")

    def test_missing_file_is_io_error(self, tmp_path, capsys):
        code = main(["verify", str(tmp_path / "absent"), "-n", "2"])
        assert code == EXIT_IO
        assert "error:" in capsys.readouterr().err

    def test_internal_error_is_not_a_finding(self, tmp_path, capsys,
                                             monkeypatch):
        def broken(*args, **kwargs):
            raise InvariantViolationError("identity automorphism not found")
        monkeypatch.setattr(cli, "automorphism_count", broken)
        path = fano_file(tmp_path)
        assert main(["verify", str(path), "-n", "2", "--aut"]) \
            == EXIT_INTERNAL == 70
        assert capsys.readouterr().err == (
            "internal error: identity automorphism not found\n")

    def test_a_search_deeper_than_the_recursion_limit_exits_2(
            self, tmp_path, capsys):
        # The search individualizes one vertex per triangle, one stack
        # frame each.
        triangles = [row for t in range(0, 450, 3) for row in
                     ((t + 1, t + 2), (t + 1, t + 3), (t + 2, t + 3))]
        path = tmp_path / "triangles.rows"
        path.write_text(IncidenceMatrix.from_rows(triangles).to_sparse_text(),
                        encoding="ascii")
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(250)
        try:
            code = main(["verify", str(path), "-n", "1", "--aut"])
        finally:
            sys.setrecursionlimit(limit)
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == (
            "error: the search on 900 vertices goes deeper than Python's "
            "recursion limit\n")

    def test_unsupported_reference_order(self, tmp_path, capsys):
        path = fano_file(tmp_path)
        assert main(["verify", str(path), "-n", "2", "--iso", "6"]) \
            == EXIT_USAGE


# Malformed matrix files: (bytes, message).
BAD_MATRICES = {
    "bad header": (b"P1\n3\n", "not a plain portable bitmap"),
    "bad P1 dimensions": (b"P1\nx 3\n000\n", "bad P1 dimensions"),
    "short P1 body": (b"P1\n3 3\n110\n101\n", "exactly 9 0/1 digits"),
    "bad row index": (b"a\t1,2\n", "bad row index 'a'"),
    "bad column list": (b"1\t1,x\n", "bad column list '1,x'"),
    "duplicate row": (b"1\t1,2\n1\t2,3\n", "duplicate row index 1"),
    "missing row": (b"1\t1,2\n3\t2,3\n", "missing row 2"),
    "columns not ascending": (b"1\t2,1\n", "strictly ascending"),
    "column 0": (b"1\t0,1\n", "a column outside 1..1"),
    "only a column below 1": (b"1\t-3\n", "row 1 has a column outside 1..0"),
    # A form feed is no line break, as in the row log.
    "form feed": (IncidenceMatrix.from_rows(FANO).to_sparse_text().replace(
        "\n7\t", "\f7\t").encode("ascii"), "line 6: bad column list"),
    # Nor does one end a P1 comment, which would leave the row "10".
    "form feed in a P1 comment": (b"P1\n2 1\n# note\x0c10\n",
                                  "exactly 2 0/1 digits"),
    "non-ASCII": (b"P1\n1 1\n\xff\n", "bad.txt is not ASCII text"),
    # A number is ASCII digits after at most one minus, as written.
    "underscore in a number": (b"1\t1,2\n2\t1_0\n",
                               "line 2: bad column list '1_0'"),
    "plus sign and blank": (b"1\t+1, 2\n", "line 1: bad column list '+1, 2'"),
    "blanks around numbers": (b" 1 \t 1 , 2 \n",
                              "line 1: bad row index ' 1 '"),
    # Line i is row i: rows are not sorted into place.
    "rows out of order": (b"2\t1\n1\t2\n", "missing row 1"),
    # P1 tokens end only at blank, TAB, CR, LF, VT and FF.
    "file separator in a P1 body": (b"P1\n2 1\n1\x1c0\n",
                                    "exactly 2 0/1 digits"),
    "unit separator after P1": (b"P1\x1f2 1 10\n",
                                "not a plain portable bitmap"),
    # More digits than int() converts: refused, not a traceback.
    "a 5000-digit column": (b"1\t" + b"1" * 5000 + b"\n",
                            "line 1: bad column list"),
    "a 5000-digit P1 width": (b"P1\n" + b"1" * 5000 + b" 1\n1\n",
                              "bad P1 dimensions"),
}


@pytest.mark.parametrize("command", [["verify", "-n", "2"], ["galfs"]],
                         ids=["verify", "galfs"])
@pytest.mark.parametrize("case", list(BAD_MATRICES))
def test_malformed_matrix_is_a_usage_error(tmp_path, capsys, command, case):
    data, message = BAD_MATRICES[case]
    path = tmp_path / "bad.txt"
    path.write_bytes(data)
    assert main(command + [str(path)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert message in err and "Traceback" not in err


def test_a_column_below_1_is_outside_the_matrix():
    with pytest.raises(InvalidParameterError,
                       match=r"^row 1 has a column outside 1\.\.0$"):
        IncidenceMatrix.from_rows([(-3,)])


@pytest.mark.parametrize("newline", ["\r\n", "\r"], ids=["CRLF", "CR"])
def test_crlf_and_cr_line_breaks_read_as_newlines(tmp_path, capsys,
                                                   newline):
    text = IncidenceMatrix.from_rows(FANO).to_sparse_text()
    path = tmp_path / "fano.rows"
    path.write_bytes(text.replace("\n", newline).encode("ascii"))
    assert main(["verify", str(path), "-n", "2"]) == EXIT_OK
    assert capsys.readouterr().out == (
        "configuration 7_3\nprojective plane of order 2\n")
    assert rectfree.parse_matrix_text(text.replace("\n", newline)) == \
        IncidenceMatrix.from_rows(FANO)


@pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"],
                         ids=["LF", "CRLF", "CR"])
def test_a_p1_comment_ends_only_at_a_line_break(newline):
    text = "P1\n2 1\n# note\x0c11\n10\n".replace("\n", newline)
    assert rectfree.parse_matrix_text(text) == \
        IncidenceMatrix.from_rows([(1,)], n_cols=2)
    fano = IncidenceMatrix.from_rows(FANO)
    text = fano.to_p1().replace("\n", "\n# \x0b\x1c\x1d\x1e 1\n", 1)
    assert rectfree.parse_matrix_text(text.replace("\n", newline)) == fano


def test_a_large_row_index_costs_no_memory():
    # Listing the rows missing below row 2 000 000 took about 80 MB.
    tracemalloc.start()
    try:
        with pytest.raises(InvalidParameterError, match="missing row 1$"):
            IncidenceMatrix.from_sparse_text("2000000\t1\n")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


class TestGalfs:
    def test_cells_to_stdout(self, tmp_path, capsys):
        path = tmp_path / "m.rows"
        path.write_text("1\t1,2\n2\t1\n", encoding="ascii")
        assert main(["galfs", str(path)]) == EXIT_OK
        assert capsys.readouterr().out == "2,2\n"

    def test_cells_to_file(self, tmp_path, capsys):
        path = tmp_path / "m.rows"
        path.write_text("1\t1,2\n2\t1\n", encoding="ascii")
        out = tmp_path / "cells.txt"
        assert main(["galfs", str(path), "--out", str(out)]) == EXIT_OK
        captured = capsys.readouterr()
        assert "galf cells: 1" in captured.out
        assert out.read_text(encoding="ascii") == "2,2\n"

    def test_rectangle_free_matrix_has_no_cells_on_flags(self, tmp_path,
                                                         capsys):
        path = fano_file(tmp_path)
        assert main(["galfs", str(path)]) == EXIT_OK
        out = capsys.readouterr().out
        cells = {tuple(map(int, line.split(",")))
                 for line in out.splitlines()}
        for i, ones in enumerate(FANO, 1):
            for j in ones:
                assert (i, j) not in cells


class TestParserPlumbing:
    def test_help_exits_zero(self, capsys):
        assert main(["-h"]) == 0
        assert "rectfree" in capsys.readouterr().out

    def test_unknown_subcommand(self, capsys):
        assert main(["frobnicate"]) == EXIT_USAGE

    def test_missing_required_option(self, capsys):
        assert main(["gen", "--rows", "5"]) == EXIT_USAGE

    def test_no_arguments(self, capsys):
        assert main([]) == EXIT_USAGE


ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def child_env():
    """The environment of a fresh ``rectfree`` process run from the tree."""
    env = {k: v for k, v in os.environ.items()
           if k != "RECTFREE_CHECKPOINT_DIR"}
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + [p for p in [os.environ.get("PYTHONPATH")] if p])
    return env


class TestTracedHarness:
    """``perfbench/traced_cli.py`` runs a command as the CLI runs it."""

    def run_both(self, tmp_path, argv):
        """(plain run, traced run, trace record) of one command."""
        trace = tmp_path / "trace.json"
        plain = subprocess.run([sys.executable, "-m", "rectfree"] + argv,
                               capture_output=True, text=True, timeout=60,
                               env=child_env(), cwd=tmp_path)
        traced = subprocess.run(
            [sys.executable, os.path.join(ROOT, "perfbench", "traced_cli.py"),
             str(trace)] + argv,
            capture_output=True, text=True, timeout=60, env=child_env(),
            cwd=tmp_path)
        assert (traced.returncode, traced.stdout) == \
            (plain.returncode, plain.stdout), traced.stderr
        return plain, traced, json.loads(trace.read_text())

    def test_traced_period_run_matches_the_untraced_one(self, tmp_path):
        argv = ["period", "-n", "3", "--window", "16", "--max-rows", "70"]
        plain, _, record = self.run_both(tmp_path, argv)
        assert plain.returncode == EXIT_BUDGET, plain.stderr
        assert record["missing"] == []
        spans = [s for s in record["spans"] if s["name"] == "detect_period"]
        assert [s["rows"] for s in spans] == [70]

    def test_traced_fold_and_verify_runs_match_the_untraced_ones(
            self, tmp_path):
        matrix = str(tmp_path / "f3.rows")
        for argv, spans in [
                (["fold", "-n", "3", "-m", "10", "--out", matrix],
                 ["detect_period", "fold",
                  "IncidenceMatrix.to_sparse_text"]),
                (["verify", matrix, "-n", "3", "--aut"],
                 ["parse_matrix_text", "verify_configuration",
                  "is_projective_plane", "automorphism_count"])]:
            plain, _, record = self.run_both(tmp_path, argv)
            assert plain.returncode == EXIT_OK, plain.stderr
            assert record["missing"] == []
            assert [s["name"] for s in record["spans"]] == ["main"] + spans


class TestPayloadBytes:
    """A payload on standard output is the ASCII bytes its ``--out`` file
    holds, whatever the encoding of standard output."""

    @staticmethod
    def run(tmp_path, argv, stdout=None, mode="wb", encoding="utf-16"):
        """Run ``rectfree argv`` in ``tmp_path`` with standard output
        opened on the file ``stdout`` in ``mode``; returns its bytes."""
        env = child_env()
        env.pop("PYTHONIOENCODING", None)
        if encoding:
            env["PYTHONIOENCODING"] = encoding
        with open(tmp_path / (stdout or os.devnull), mode) as fh:
            done = subprocess.run(
                [sys.executable, "-m", "rectfree"] + argv, stdout=fh,
                stderr=subprocess.PIPE, text=True, timeout=60, env=env,
                cwd=tmp_path)
        assert done.returncode == EXIT_OK, done.stderr
        return (tmp_path / stdout).read_bytes() if stdout else None

    @pytest.mark.parametrize("case", ["gen", "fold then verify", "galfs",
                                      "gen resumed with >>"])
    def test_stdout_payload_is_the_file_payload(self, tmp_path, case):
        gen = ["gen", "-n", "2", "--progress-every", "0"]
        if case == "gen":
            out = self.run(tmp_path, gen + ["--rows", "3", "--checkpoint",
                                            "c.ckpt"], "out")
            cp = load_checkpoint(str(tmp_path / "c.ckpt"))
            assert log_prefix_hash(tmp_path / "out", cp.log_offset) == \
                cp.row_hash
            self.run(tmp_path, gen + ["--rows", "3", "--out", "ref"])
        elif case == "fold then verify":
            out = self.run(tmp_path, ["fold", "-n", "2"], "f2.txt")
            self.run(tmp_path, ["verify", "f2.txt", "-n", "2"])
            self.run(tmp_path, ["fold", "-n", "2", "--out", "ref"])
        elif case == "galfs":
            fano_file(tmp_path)
            out = self.run(tmp_path, ["galfs", "fano.rows"], "cells")
            assert out
            self.run(tmp_path, ["galfs", "fano.rows", "--out", "ref"])
        else:  # a real file descriptor, which capsys never writes to
            for rows in ("3", "7"):
                out = self.run(tmp_path, gen + ["--rows", rows,
                                                "--checkpoint", "c.ckpt"],
                               "out", mode="ab", encoding=None)
            self.run(tmp_path, gen + ["--rows", "7", "--out", "ref"],
                     encoding=None)
        assert out == (tmp_path / "ref").read_bytes()


def loaded_modules(tmp_path, code):
    """``rectfree`` modules and ``_hashlib``/``argparse`` presence in a
    fresh process after it runs ``code``."""
    probe = ("import json, sys\n" + code + "\n"
             "print(json.dumps(sorted(m for m in sys.modules\n"
             "    if m.split('.')[0] in ('rectfree', '_hashlib',\n"
             "                           'argparse'))))\n")
    done = subprocess.run([sys.executable, "-c", probe], capture_output=True,
                          text=True, timeout=60, env=child_env(),
                          cwd=tmp_path)
    assert done.returncode == 0, done.stderr
    return set(json.loads(done.stdout.splitlines()[-1]))


class TestImportFootprint:
    """Each command imports the modules it runs and no others, and none
    loads OpenSSL's ``_hashlib``: hashes use CPython's built-in SHA-256."""

    def test_bare_cli_import(self, tmp_path):
        assert loaded_modules(tmp_path, "import rectfree.cli") == {
            "rectfree", "rectfree.cli", "rectfree.errors", "argparse"}

    def test_package_names_load_their_modules(self, tmp_path):
        assert loaded_modules(tmp_path, "import rectfree") == {"rectfree"}
        assert loaded_modules(
            tmp_path, "import rectfree\nrectfree.matrix.IncidenceMatrix") \
            == {"rectfree", "rectfree.errors", "rectfree.generator",
                "rectfree.matrix"}
        assert loaded_modules(tmp_path, "from rectfree import Params") == {
            "rectfree", "rectfree.errors", "rectfree.generator"}

    @pytest.mark.parametrize("argv, modules", [
        ("gen -n 2 --rows 5", {"checkpoint", "generator", "period"}),
        ("period -n 2 --max-rows 100 --progress-every 0",
         {"checkpoint", "generator", "period"}),
        ("fold -n 2", {"folding", "generator", "matrix", "period",
                       "verify"}),
        ("fold -n 2 --compact", {"folding", "generator", "matrix",
                                 "period", "verify"}),
        ("verify fano.rows -n 2 --aut", {"generator", "matrix", "verify"}),
        ("galfs fano.rows", {"generator", "matrix"}),
        ("gen -n 2 --rows 5 --out g.rows --checkpoint g.ckpt",
         {"checkpoint", "generator", "period"}),
        ("period -n 2 --max-rows 100 --progress-every 0 --checkpoint p.ckpt"
         " --checkpoint-every-rows 2", {"checkpoint", "generator", "period"}),
    ])
    def test_command_modules(self, tmp_path, argv, modules):
        fano_file(tmp_path)
        code = ("import contextlib, io\n"
                "from rectfree.cli import main\n"
                "with contextlib.redirect_stdout(\n"
                "        io.TextIOWrapper(io.BytesIO())):\n"
                f"    assert main({argv.split()!r}) == 0\n")
        assert loaded_modules(tmp_path, code) == {
            "rectfree", "rectfree.cli", "rectfree.errors", "argparse"} | {
            m if m.startswith("_") else f"rectfree.{m}" for m in modules}
        words = argv.split()
        if "--checkpoint" in words:  # so the run has hashed a checkpoint
            path = tmp_path / words[words.index("--checkpoint") + 1]
            assert load_checkpoint(str(path)).n == 2

    def test_cli_resolves_exactly_the_package_names(self, tmp_path):
        code = ("import rectfree, rectfree.cli as cli\n"
                "for name in rectfree.__all__:\n"
                "    assert getattr(cli, name) is getattr(rectfree, name), "
                "name\n"
                "for name in ('row_line', 'TYPECODES', 'checkpoint'):\n"
                "    assert not hasattr(cli, name), name\n")
        assert "rectfree.cli" in loaded_modules(tmp_path, code)

    def test_star_import_binds_every_name_from_its_home(self):
        namespace: dict = {}
        exec("from rectfree import *", namespace)
        assert sorted(set(namespace) - {"__builtins__"}) == \
            rectfree.__all__
        for name in rectfree.__all__:
            home = import_module(f"rectfree.{rectfree._HOME[name]}")
            value = namespace[name]
            assert value is getattr(home, name) is getattr(rectfree, name)
            assert getattr(value, "__module__", home.__name__) in (
                home.__name__, "builtins")
