"""Fuzz gate: every command that reads a file meets damaged files with an
exit code, never an internal error or a traceback.

Valid inputs (a row log and its ``gen`` checkpoint, a ``period``
checkpoint cut between an anchor and its return, the format-2 fixture
cut in the middle of a fingerprint verification, and a matrix in both
text formats) are mutated at the byte level: bytes set, inserted or deleted.
A mutated checkpoint gets a fresh checksum, so that the damage reaches
the decoder behind it.  Each mutated input then goes through
:func:`rectfree.cli.main` under the commands that read it.  A mutated
sparse matrix that is accepted must also be the text its matrix writes,
up to line ends, empty lines and leading zeros.
"""
import hashlib
import io
import os
import re
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rectfree import IncidenceMatrix, InvalidParameterError, parse_matrix_text
from rectfree.cli import EXIT_INTERNAL, main

FANO = [(1, 2, 3), (1, 4, 5), (1, 6, 7), (2, 4, 6), (2, 5, 7),
        (3, 4, 7), (3, 5, 6)]
QUIET = ["--progress-every", "0"]

# Bytes that the formats give meaning to, and any byte at all.
BYTES = st.one_of(st.sampled_from(b"0123456789,\t\n\r #P1\x0c-"),
                  st.integers(0, 255))
EDITS = st.lists(st.tuples(st.sampled_from(["set", "insert", "delete"]),
                           st.integers(0, 1 << 16), BYTES),
                 min_size=1, max_size=3)


def mutate(data: bytes, edits) -> bytes:
    buf = bytearray(data)
    for op, at, byte in edits:
        at %= len(buf) + 1
        if op == "insert":
            buf.insert(at, byte)
        elif at < len(buf):
            if op == "set":
                buf[at] = byte
            else:
                del buf[at]
    return bytes(buf)


def resealed(data: bytes, edits) -> bytes:
    """``data``, a checkpoint, mutated before its checksum, which is
    then recomputed."""
    body = mutate(data[:-8], edits)
    return body + hashlib.sha256(body).digest()[:8]


def run(argv) -> int:
    out, err = io.TextIOWrapper(io.BytesIO(), encoding="ascii"), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(argv)
    assert code != EXIT_INTERNAL, (argv, err.getvalue())
    assert "Traceback" not in err.getvalue(), err.getvalue()
    return code


def gen_argv(d):
    return ["gen", "-n", "3", "--out", os.path.join(d, "g.rows"),
            "--checkpoint", os.path.join(d, "g.ckpt"), *QUIET]


def period_argv(d):
    return ["period", "-n", "3", "--checkpoint", os.path.join(d, "p.ckpt"),
            *QUIET]


@pytest.fixture(scope="module")
def valid():
    """The bytes of each valid input."""
    with tempfile.TemporaryDirectory() as d:
        assert run(gen_argv(d) + ["--rows", "40",
                                  "--checkpoint-every-rows", "15"]) == 0
        # The budget runs out between the anchor at row 64 and its
        # return at row 80.
        assert run(period_argv(d) + ["--window", "16",
                                     "--max-rows", "70"]) == 3
        files = {name: Path(d, name).read_bytes()
                 for name in ("g.rows", "g.ckpt", "p.ckpt")}
    files["p2.ckpt"] = (Path(__file__).parent / "fixtures"
                        / "period-n3-w16-r130-v2.ckpt").read_bytes()
    fano = IncidenceMatrix.from_rows(FANO)
    files["sparse"] = fano.to_sparse_text().encode("ascii")
    files["p1"] = fano.to_p1().replace("\n", "\n# Fano\n", 1).encode("ascii")
    return files


def resume_gen(d) -> None:
    run(gen_argv(d) + ["--rows", "50"])


def resume_period(d) -> None:
    run(period_argv(d) + ["--max-rows", "200"])


def resume_period_v2(d) -> None:
    run(["period", "-n", "3", "--checkpoint", os.path.join(d, "p2.ckpt"),
         "--max-rows", "200", *QUIET])


def read_matrix(d) -> None:
    path = os.path.join(d, "m.txt")
    run(["verify", "-n", "2", "--aut", path])
    run(["galfs", path])


# (file mutated, its name on disk, command run, whether it has a checksum)
TARGETS = {
    "row log": ("g.rows", "g.rows", resume_gen, False),
    "gen checkpoint": ("g.ckpt", "g.ckpt", resume_gen, True),
    "period checkpoint": ("p.ckpt", "p.ckpt", resume_period, True),
    "format-2 period checkpoint": ("p2.ckpt", "p2.ckpt", resume_period_v2,
                                   True),
    "sparse matrix": ("sparse", "m.txt", read_matrix, False),
    "P1 matrix": ("p1", "m.txt", read_matrix, False),
}


@pytest.mark.parametrize("target", list(TARGETS))
@settings(max_examples=150, deadline=None, derandomize=True)
@given(edits=EDITS)
def test_damaged_input_is_an_exit_code(valid, target, edits):
    source, name, command, sealed = TARGETS[target]
    data = valid[source]
    files = {"g.rows": valid["g.rows"], "g.ckpt": valid["g.ckpt"],
             "p.ckpt": valid["p.ckpt"], "p2.ckpt": valid["p2.ckpt"],
             name: resealed(data, edits) if sealed else mutate(data, edits)}
    with tempfile.TemporaryDirectory() as d:
        for file, data in files.items():
            Path(d, file).write_bytes(data)
        command(d)


def as_written(text: str) -> str:
    """``text`` as :meth:`IncidenceMatrix.to_sparse_text` writes it: LF
    line ends, no empty line, no leading zero and a final newline."""
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    return "".join(re.sub(r"[0-9]+", lambda m: str(int(m[0])), line) + "\n"
                   for line in lines if line)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(edits=EDITS)
def test_an_accepted_sparse_text_reads_as_written(valid, edits):
    try:
        text = mutate(valid["sparse"], edits).decode("ascii")
        matrix = parse_matrix_text(text)
    except (UnicodeDecodeError, InvalidParameterError):
        return
    assert matrix.to_sparse_text() == as_written(text)
