"""Command-line surface: reproducible runs of the whole pipeline.

Subcommands
-----------

``gen``
    Stream rows of the greedy construction in the row-log text format,
    resuming from a checkpoint when one is present.
``period``
    Detect the minimal preperiod/period and print a report;
    budget-exhausted runs leave a resumable checkpoint behind.
``fold``
    Detect the period, wrap one band of it into a finite symmetric
    incidence matrix and emit it (sparse text or P1 bitmap).  The rows
    come from the period the detection run confirmed, so the
    construction is generated once.
``verify``
    Check the configuration axioms of a matrix file, optionally count
    automorphisms, compare against a reference plane, or export the
    incidence graph as DOT.
``galfs``
    List the cells of a finite matrix that would complete a rectangle.

Exit codes: 0 success, 2 usage or invalid parameters (a checkpoint or
row log in use by another run among them), 3 budget exhausted, 4
verification violation (axiom failure, refused fold, or a requested
comparison answering "no"), 5 I/O or checkpoint damage, 70 internal
error (a failed invariant: a bug in rectfree, not a finding).

Everything written to standard output is deterministic for a fixed
command line and input files; progress and timing lines go to standard
error only.  A payload (rows, matrix, listing, DOT graph) goes out as
ASCII bytes, to its file or to ``sys.stdout.buffer``, whatever the
encoding of standard output; so an in-process caller that redirects
standard output needs a stream with a ``.buffer``.  Progress lines and
in-loop checkpoints come at the checks of one
:class:`~rectfree.period.Cadence` per run, and a progress line reports
the rate of the rows this process generated.  The environment
variable ``RECTFREE_CHECKPOINT_DIR`` names a directory used for
checkpoint files when ``--checkpoint`` is not given; without either,
runs do not checkpoint.
"""
from __future__ import annotations

import argparse
import os
import sys
from contextlib import nullcontext
from importlib import import_module

from . import _EXPORTS, _HOME
from .errors import (BudgetExhaustedError, CheckpointError,
                     ConstraintViolationError, InvalidParameterError,
                     InvariantViolationError, SizeLimitError)

# Commands call the package's names (``_EXPORTS``) through this module's
# namespace.  A command binds the names of the modules it runs when it
# starts (``_load``), and reading one as an attribute of this module binds
# its module's names first, so that tools may patch or wrap them here
# before any command runs.


def _load(*modules: str) -> None:
    """Import ``modules`` and bind each of their package names that this
    module does not hold yet; a name already bound (patched, say) is
    kept."""
    namespace = globals()
    for module in modules:
        home = import_module(f".{module}", __package__)
        for name in _EXPORTS[module]:
            if name not in namespace:
                namespace[name] = getattr(home, name)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(module)
    return globals()[name]


EXIT_OK = 0
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_VIOLATION = 4
EXIT_IO = 5
EXIT_INTERNAL = 70  # EX_SOFTWARE

ENV_CHECKPOINT_DIR = "RECTFREE_CHECKPOINT_DIR"

_DEFAULT_MAX_ROWS = 10_000_000
_DEFAULT_CKPT_ROWS = 1_000_000
_DEFAULT_CKPT_SECONDS = 600.0


def _checkpoint_path(explicit: str | None, kind: str, n: int) -> str | None:
    if explicit:
        return explicit
    directory = os.environ.get(ENV_CHECKPOINT_DIR)
    if directory:
        return os.path.join(directory, f"{kind}-n{n}.ckpt")
    return None


def _load_for(path: str | None, n: int, kind: str) -> Checkpoint | None:
    """The checkpoint at ``path``, if there is one, refused unless it is
    a ``kind`` ("gen" or "period") checkpoint of order ``n``."""
    if path is None or not os.path.exists(path):
        return None
    cp = load_checkpoint(path)
    if cp.n != n:
        raise InvalidParameterError(
            f"checkpoint {path} is for order {cp.n}, not {n}")
    saved_by = "gen" if cp.detector is None else "period"
    if saved_by != kind:
        raise InvalidParameterError(
            f"checkpoint {path} was saved by {saved_by}; it cannot seed "
            f"{kind}")
    return cp


def _writer_lock(ckpt_path: str | None):
    """Exclusive lock held for a whole run on a ``<checkpoint>.lock``
    sidecar (each save renames a new file over the checkpoint), so a
    second process on the same checkpoint exits at once and touches
    neither file.  A row log locks itself."""
    if not ckpt_path:
        return nullcontext()
    return exclusive_lock(ckpt_path + ".lock", f"checkpoint {ckpt_path}")


def _cadence(args) -> Cadence:
    """The command's cadence, checked before any file is read (``fold``
    has no checkpoint flags)."""
    return Cadence(
        checkpoint_every_rows=getattr(args, "checkpoint_every_rows", None),
        checkpoint_every_seconds=getattr(args, "checkpoint_every_seconds",
                                         None),
        progress_every=args.progress_every,
        label=f"{args.command} n={args.n}")


def _emit(text: str, out: str | None) -> None:
    """Write a payload as ASCII bytes to the file ``out``, or to standard
    output's binary buffer, after any text already printed there."""
    data = text.encode("ascii")
    if out:
        with open(out, "wb") as fh:
            fh.write(data)
    else:
        sys.stdout.flush()
        sys.stdout.buffer.write(data)


# -- gen ---------------------------------------------------------------------

def cmd_gen(args) -> int:
    _load("checkpoint", "generator", "period")
    if args.rows < 1:
        raise InvalidParameterError(
            f"--rows must be a positive total, got {args.rows}")
    cadence = _cadence(args)
    ckpt_path = _checkpoint_path(args.checkpoint, "gen", args.n)
    if args.out and ckpt_path:
        for path, what in (
                (ckpt_path, "the checkpoint file"),
                (ckpt_path + ".lock",
                 f"the lock sidecar of checkpoint {ckpt_path}")):
            if os.path.realpath(args.out) == os.path.realpath(path) or (
                    os.path.exists(args.out) and os.path.exists(path)
                    and os.path.samefile(args.out, path)):
                raise InvalidParameterError(
                    f"--out {args.out} is {what}; the row log needs a "
                    f"path of its own")
    with _writer_lock(ckpt_path):
        gen = _gen_rows(args, ckpt_path, cadence)
    report = [f"rows: {gen.rows_emitted}"]
    if args.out:
        report.append(f"row log: {args.out}")
    if ckpt_path:
        report.append(f"checkpoint: {ckpt_path}")
    out = sys.stderr if not args.out else sys.stdout
    for line in report:
        print(line, file=out)
    return EXIT_OK


def _gen_rows(args, ckpt_path: str | None, cadence: Cadence):
    """Emit rows up to ``args.rows`` in all, saving on the cadence and at
    the end; returns the generator."""
    cp = _load_for(ckpt_path, args.n, "gen")
    if cp is None:
        gen = new_generator(args.n)
        offset, row_hash = 0, EMPTY_ROW_HASH
    else:
        gen = cp.restore_generator()
        offset, row_hash = cp.log_offset, cp.row_hash
    sink = RowLog(args.out, offset=offset, row_hash=row_hash)

    def save() -> None:
        sink.sync()
        if ckpt_path:
            save_checkpoint(Checkpoint.capture(
                gen, row_hash=sink.row_hash, log_offset=sink.offset),
                ckpt_path)

    if ckpt_path:
        cadence.save = save
    next_row = gen.next_row
    append = sink.append
    first = gen.rows_emitted
    cadence.start(first)
    try:
        for rows in range(first, args.rows):
            if rows >= cadence.next_row:
                cadence.check(rows)
            row = next_row()
            append(row.index, row.ones)
        save()
    finally:
        sink.close()
    return gen


# -- period ------------------------------------------------------------------

def _report_period(result) -> list[str]:
    m = minimal_fold_multiplier(result)
    return [
        f"n={result.n} pp={result.pp} p={result.p}",
        f"band breadth b: {result.b_breadth}",
        f"longest row span l_max: {result.l_max}",
        f"empty-frontier shortcut: {'yes' if result.case1 else 'no'}",
        f"rows examined: {result.rows_examined}",
        f"minimal fold multiplier m: {m} (folded size {result.p * m})",
    ]


def cmd_period(args) -> int:
    _load("checkpoint", "period")
    cadence = _cadence(args)
    ckpt_path = _checkpoint_path(args.checkpoint, "period", args.n)
    try:
        result = _detect(args, cadence, ckpt_path)
    except BudgetExhaustedError as exc:
        print(f"n={args.n} budget exhausted after {exc.rows_examined} "
              f"rows; no period confirmed")
        if ckpt_path:
            print(f"resumable checkpoint: {ckpt_path}")
        return EXIT_BUDGET
    for line in _report_period(result):
        print(line)
    return EXIT_OK


def _resume_state(ckpt_path: str | None, n: int):
    """The resume state of the checkpoint at ``ckpt_path``, if any."""
    cp = _load_for(ckpt_path, n, "period")
    return None if cp is None else cp.restore_resume()


def _detect(args, cadence: Cadence, ckpt_path: str | None = None):
    """Detect the period of order ``args.n`` under ``cadence``.  A
    checkpoint path is locked for the run; the checkpoint there, if any,
    seeds detection, and the cadence's saves and the state of a run whose
    budget runs out go there before :class:`BudgetExhaustedError`
    propagates."""
    with _writer_lock(ckpt_path):
        def save(state) -> None:
            save_checkpoint(Checkpoint.capture(
                state.generator, row_hash=EMPTY_ROW_HASH, log_offset=0,
                detector=state.detector), ckpt_path)

        if ckpt_path:
            cadence.save = save
        try:
            # The resume state goes straight into the call, so no name
            # here holds the loaded ring beside the restored detector's
            # copy (CPython 3.11+ hands call arguments to the callee).
            return detect_period(args.n, args.max_rows, window=args.window,
                                 resume=_resume_state(ckpt_path, args.n),
                                 cadence=cadence)
        except BudgetExhaustedError as exc:
            if ckpt_path:
                save(exc.resume)
            raise


# -- fold --------------------------------------------------------------------

def cmd_fold(args) -> int:
    _load("period", "folding")
    result = _detect(args, _cadence(args))
    if args.compact:
        mat = compact_plane(args.n, result)
        summary = (f"n={args.n} compact plane: {mat.n_rows} x {mat.n_cols}, "
                   f"p={result.p}")
    else:
        params = FoldParams.for_period(result, m=args.m, v=args.v)
        mat = fold(args.n, result, params,
                   allow_unproven=args.allow_unproven)
        summary = (f"n={args.n} fold: {mat.n_rows} x {mat.n_cols}, "
                   f"pp={result.pp} p={result.p} m={params.m} "
                   f"p_bar={params.p_bar} v={params.v}")
    _emit(mat.to_p1() if args.format == "p1" else mat.to_sparse_text(),
          args.out)
    if args.out:
        print(summary)
        print(f"matrix: {args.out}")
    else:
        print(summary, file=sys.stderr)
    return EXIT_OK


# -- verify ------------------------------------------------------------------

def _read_matrix(path: str):
    """The matrix in file ``path``; a file that is not ASCII is refused."""
    with open(path, encoding="ascii") as fh:
        try:
            text = fh.read()
        except UnicodeDecodeError:
            raise InvalidParameterError(
                f"matrix file {path} is not ASCII text") from None
    return parse_matrix_text(text)


def cmd_verify(args) -> int:
    _load("matrix", "verify")
    outcome = verify_configuration(_read_matrix(args.matrix), args.n)
    if not isinstance(outcome, Configuration):
        print(f"violation of axiom ({outcome.axiom}): {outcome.message}")
        print(f"witness: {outcome.witness}")
        return EXIT_VIOLATION
    c = outcome
    print(f"configuration {c.v}_{c.k}")
    if is_projective_plane(c):
        print(f"projective plane of order {c.k - 1}")
    else:
        print("projective plane: no")
    code = EXIT_OK
    if args.aut:
        count = automorphism_count(c, vertex_budget=args.vertex_budget)
        print(f"automorphisms: {count} "
              f"(point/line bijections; dualities not counted)")
    if args.iso is not None:
        ref = reference_plane(args.iso)
        verdict = isomorphic(c, ref, vertex_budget=args.vertex_budget)
        print(f"isomorphic to the order-{args.iso} reference plane: "
              f"{'yes' if verdict else 'no'}")
        if not verdict:
            code = EXIT_VIOLATION
    if args.levi:
        _emit(levi_dot(c), args.levi)
        print(f"levi graph: {args.levi}")
    return code


# -- galfs -------------------------------------------------------------------

def cmd_galfs(args) -> int:
    _load("matrix", "generator")
    cells = sorted(compute_galfs(_read_matrix(args.matrix).to_dense()))
    _emit("".join(f"{i},{j}\n" for i, j in cells), args.out)
    if args.out:
        print(f"galf cells: {len(cells)}")
        print(f"listing: {args.out}")
    return EXIT_OK


# -- wiring ------------------------------------------------------------------

def _add_order(p: argparse.ArgumentParser) -> None:
    p.add_argument("-n", type=int, required=True, metavar="N",
                   help="order of the construction (row/column cap N+1)")


def _add_budget(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-rows", type=int, default=_DEFAULT_MAX_ROWS,
                   metavar="M", help="detection row budget "
                   f"(default {_DEFAULT_MAX_ROWS})")
    p.add_argument("--window", type=int, metavar="W",
                   help="ring of recent rows, W + sigma + 1 of them, from "
                   "which pp and the period's rows are read (default 2^17; "
                   "a resumed period checkpoint keeps its own); it does "
                   "not bound the period; at n = 6 a ring row takes 7 to "
                   "11 bytes of memory, and 7 in a checkpoint")


def _add_progress(p: argparse.ArgumentParser) -> None:
    p.add_argument("--progress-every", type=float, default=10.0,
                   metavar="SEC", help="progress line interval on stderr; "
                   "0 disables (default 10)")


def _add_cadence(p: argparse.ArgumentParser) -> None:
    p.add_argument("--checkpoint", metavar="PATH",
                   help="checkpoint file (default: "
                   f"${ENV_CHECKPOINT_DIR}/<cmd>-n<N>.ckpt when the "
                   "variable is set; otherwise no checkpointing)")
    p.add_argument("--checkpoint-every-rows", type=int,
                   default=_DEFAULT_CKPT_ROWS, metavar="R",
                   help=f"checkpoint row cadence (default {_DEFAULT_CKPT_ROWS})")
    p.add_argument("--checkpoint-every-seconds", type=float,
                   default=_DEFAULT_CKPT_SECONDS, metavar="S",
                   help="checkpoint wall-clock cadence "
                   f"(default {_DEFAULT_CKPT_SECONDS:.0f})")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rectfree",
        description="Greedy rectangle-free matrices: generation, period "
                    "detection, folding and verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="stream construction rows")
    _add_order(p)
    p.add_argument("--rows", type=int, required=True, metavar="COUNT",
                   help="total number of rows (resumes count past a "
                   "checkpoint)")
    p.add_argument("--out", metavar="PATH",
                   help="row-log file (default: rows to stdout)")
    _add_cadence(p)
    _add_progress(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("period", help="detect the minimal preperiod/period")
    _add_order(p)
    _add_budget(p)
    _add_cadence(p)
    _add_progress(p)
    p.set_defaults(func=cmd_period)

    p = sub.add_parser("fold", help="wrap the construction into a finite "
                                    "symmetric incidence matrix")
    _add_order(p)
    _add_budget(p)
    p.add_argument("--compact", action="store_true",
                   help="emit the leading p x p matrix (preperiod 0 only)")
    p.add_argument("-m", type=int, metavar="M",
                   help="fold multiplier (default: smallest safe)")
    p.add_argument("-v", type=int, metavar="V",
                   help="wrap anchor (default: pp + p*m)")
    p.add_argument("--allow-unproven", action="store_true",
                   help="accept multipliers between the provable bounds, "
                   "relying on the exhaustive rectangle check")
    p.add_argument("--format", choices=("sparse", "p1"), default="sparse",
                   help="output format (default sparse text)")
    p.add_argument("--out", metavar="PATH",
                   help="matrix file (default: matrix to stdout)")
    _add_progress(p)
    p.set_defaults(func=cmd_fold)

    p = sub.add_parser("verify", help="check configuration axioms")
    p.add_argument("matrix", metavar="FILE",
                   help="matrix file (sparse text or P1 bitmap)")
    _add_order(p)
    p.add_argument("--aut", action="store_true",
                   help="count automorphisms")
    p.add_argument("--iso", type=int, metavar="Q",
                   help="compare against the order-Q reference plane")
    p.add_argument("--levi", metavar="PATH",
                   help="write the incidence graph as DOT")
    p.add_argument("--vertex-budget", type=int, default=10_000,
                   metavar="B", help="search size limit (default 10000)")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("galfs", help="list rectangle-completing cells")
    p.add_argument("matrix", metavar="FILE",
                   help="matrix file (sparse text or P1 bitmap)")
    p.add_argument("--out", metavar="PATH",
                   help="listing file (default: stdout)")
    p.set_defaults(func=cmd_galfs)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (InvalidParameterError, SizeLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExhaustedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except ConstraintViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VIOLATION
    except InvariantViolationError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return EXIT_INTERNAL
    except CheckpointError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
