"""Finite 0-1 incidence matrices with sparse storage and text formats.

Rows are stored as strictly ascending tuples of 1-based column indices;
this keeps matrices with up to ~10^5 rows of bounded weight cheap while
dense renderings (``to_dense``, ``to_p1``) are guarded by a size limit.

Two interchange formats are supported:

* portable bitmap, plain variant (``P1`` header, width height, one
  matrix bit per pixel, row-major), and
* sparse text: line i lists the ascending one-columns of row i in the
  same ``k<TAB>j1,j2,...`` shape the generator's row log uses, and is
  read by the same reader; only empty lines are skipped.

In both formats a number is ASCII digits after at most one leading
minus, and P1 tokens end only at blank, TAB, CR, LF, VT and FF.
"""
from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidParameterError, SizeLimitError
from .generator import _number, _read_row_line, row_line

_PBM_SPACE = str.maketrans("\t\r\n\v\f", "     ")

#: Densifying a matrix with more cells than this is refused.
MAX_DENSE_CELLS = 25_000_000


@dataclass(frozen=True)
class IncidenceMatrix:
    """Immutable 0-1 matrix; ``rows[i]`` lists row i+1's one-columns."""

    n_rows: int
    n_cols: int
    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.n_rows < 0 or self.n_cols < 0:
            raise InvalidParameterError("matrix dimensions must be >= 0")
        if len(self.rows) != self.n_rows:
            raise InvalidParameterError(
                f"{self.n_rows} rows declared, {len(self.rows)} given")
        for i, ones in enumerate(self.rows, 1):
            if any(ones[t] >= ones[t + 1] for t in range(len(ones) - 1)):
                raise InvalidParameterError(
                    f"row {i} columns must be strictly ascending")
            if ones and (ones[0] < 1 or ones[-1] > self.n_cols):
                raise InvalidParameterError(
                    f"row {i} has a column outside 1..{self.n_cols}")

    @classmethod
    def from_rows(cls, rows, n_cols: int | None = None) -> "IncidenceMatrix":
        """Build from an iterable of one-column lists (1-based)."""
        tup = tuple(tuple(int(j) for j in ones) for ones in rows)
        return cls(len(tup), _width(tup) if n_cols is None else n_cols, tup)

    @classmethod
    def from_dense(cls, bits) -> "IncidenceMatrix":
        """Build from a row-major list of 0/1 lists."""
        rows = []
        width = None
        for i, row in enumerate(bits, 1):
            row = list(row)
            if width is None:
                width = len(row)
            elif len(row) != width:
                raise InvalidParameterError(f"row {i} width differs")
            if any(x not in (0, 1) for x in row):
                raise InvalidParameterError(f"row {i} has a non-0/1 entry")
            rows.append(tuple(j for j, x in enumerate(row, 1) if x))
        return cls(len(rows), width or 0, tuple(rows))

    # -- shape ---------------------------------------------------------

    @property
    def is_square(self) -> bool:
        return self.n_rows == self.n_cols

    @property
    def size(self) -> int:
        """Side length; only square matrices have one."""
        if not self.is_square:
            raise InvalidParameterError(
                f"matrix is {self.n_rows}x{self.n_cols}, not square")
        return self.n_rows

    def column_weights(self) -> list[int]:
        """Weight of every column, index 0 holding column 1."""
        w = [0] * self.n_cols
        for ones in self.rows:
            for j in ones:
                w[j - 1] += 1
        return w

    @property
    def is_symmetric(self) -> bool:
        if not self.is_square:
            return False
        flags = {(i, j) for i, ones in enumerate(self.rows, 1) for j in ones}
        return all((j, i) in flags for i, j in flags)

    # -- dense / P1 ----------------------------------------------------

    def _guard_dense(self) -> None:
        if self.n_rows * self.n_cols > MAX_DENSE_CELLS:
            raise SizeLimitError(
                f"{self.n_rows}x{self.n_cols} is too large to densify "
                f"(> {MAX_DENSE_CELLS} cells)")

    def to_dense(self) -> list[list[int]]:
        self._guard_dense()
        out = []
        for ones in self.rows:
            row = [0] * self.n_cols
            for j in ones:
                row[j - 1] = 1
            out.append(row)
        return out

    def to_p1(self) -> str:
        """Plain portable bitmap: ``P1``, width height, then bit rows."""
        self._guard_dense()
        lines = [f"P1\n{self.n_cols} {self.n_rows}\n"]
        for ones in self.rows:
            row = ["0"] * self.n_cols
            for j in ones:
                row[j - 1] = "1"
            lines.append("".join(row) + "\n")
        return "".join(lines)

    @classmethod
    def from_p1(cls, text: str) -> "IncidenceMatrix":
        body = "\n".join(line.split("#", 1)[0] for line in _lines(text))
        tokens = [t for t in body.translate(_PBM_SPACE).split(" ") if t]
        if len(tokens) < 3 or tokens[0] != "P1":
            raise InvalidParameterError("not a plain portable bitmap (P1)")
        width, height = _number(tokens[1]), _number(tokens[2])
        if width is None or height is None:
            raise InvalidParameterError("bad P1 dimensions")
        bits = "".join(tokens[3:])
        if len(bits) != width * height or set(bits) - {"0", "1"}:
            raise InvalidParameterError(
                f"P1 body must hold exactly {width * height} 0/1 digits")
        rows = tuple(
            tuple(j for j in range(1, width + 1)
                  if bits[i * width + j - 1] == "1")
            for i in range(height))
        return cls(height, width, rows)

    # -- sparse text ---------------------------------------------------

    def to_sparse_text(self) -> str:
        return b"".join([row_line(i, ones) for i, ones
                         in enumerate(self.rows, 1)]).decode("ascii")

    @classmethod
    def from_sparse_text(cls, text: str) -> "IncidenceMatrix":
        rows = []
        for lineno, line in enumerate(_lines(text), 1):
            if not line:
                continue
            try:
                idx, ones = _read_row_line(line)
            except InvalidParameterError as exc:
                raise InvalidParameterError(f"line {lineno}: {exc}") from None
            if idx > len(rows) + 1:
                raise InvalidParameterError(f"missing row {len(rows) + 1}")
            if idx != len(rows) + 1:
                raise InvalidParameterError(
                    f"line {lineno}: bad or duplicate row index {idx}")
            rows.append(ones)
        return cls.from_rows(rows)


def _lines(text: str) -> list[str]:
    """``text`` split at ``\\n``, ``\\r\\n`` and ``\\r`` only, as the row
    log is; str.splitlines() also splits at a form feed, say."""
    return text.replace("\r\n", "\n").replace("\r", "\n").split("\n")


def _width(rows) -> int:
    """The width rows need: their last one-column, and at least 0 (so a
    column below 1 is refused as outside the matrix)."""
    return max([0, *(ones[-1] for ones in rows if ones)])


def parse_matrix_text(text: str) -> IncidenceMatrix:
    """Parse either supported text format, sniffing the P1 header."""
    if text.lstrip().startswith("P1"):
        return IncidenceMatrix.from_p1(text)
    return IncidenceMatrix.from_sparse_text(text)
