"""Greedy rectangle-free 0-1 matrices and their folded configurations.

The package streams the row-by-row greedy construction that places a one
wherever row cap, column cap and rectangle-freeness allow, detects the
eventual periodicity of that infinite matrix, folds one period band into
a finite symmetric incidence matrix, and verifies the result as an
incidence-geometry configuration — with atomic checkpoints for runs that
take months and a CLI tying the pieces together.

``import rectfree`` loads no submodule: each exported name is imported
from its home module when it is first accessed (PEP 562), so a program
pays only for the parts it uses.
"""
from importlib import import_module

__version__ = "0.1.0"

# Home module of every exported name.
_EXPORTS = {
    "checkpoint": (
        "Checkpoint", "EMPTY_ROW_HASH", "RowLog", "chain_row_hash",
        "exclusive_lock", "iter_row_log", "load_checkpoint",
        "log_prefix_hash", "save_checkpoint"),
    "errors": (
        "BudgetExhaustedError", "CheckpointError", "ConstraintViolationError",
        "CorruptCheckpointError", "InvalidParameterError",
        "InvariantViolationError", "RectfreeError", "SizeLimitError",
        "VersionMismatchError"),
    "folding": (
        "FoldParams", "compact_plane", "fold", "hypothesis_status",
        "regenerate_rows"),
    "generator": (
        "GeneratorState", "MAX_ORDER", "Params", "SparseRow", "compute_galfs",
        "format_row_line", "generate_naive", "generate_prefix",
        "is_admissible", "length_bound", "new_generator", "next_row",
        "parse_row_line"),
    "matrix": ("IncidenceMatrix", "parse_matrix_text"),
    "period": (
        "Cadence", "DEFAULT_WINDOW", "DefiningMatrix", "DetectorSnapshot",
        "PeriodResult", "ResumeState", "defining_matrix", "detect_period",
        "minimal_fold_multiplier"),
    "verify": (
        "Configuration", "ConfigurationViolation", "automorphism_count",
        "canonical_form", "find_rectangle", "is_desarguesian",
        "is_projective_plane", "isomorphic", "levi_dot", "reference_plane",
        "verify_configuration"),
}
_HOME = {name: module for module, names in _EXPORTS.items()
         for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:  # a submodule not imported yet
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
