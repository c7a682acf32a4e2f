"""Shared text formats: matrices/vectors, result documents, manifests, CSV.

Matrix files are plain text: a first line "rows cols", then one line per
row of space-separated decimal literals parsed as 64-bit floats.  Vectors
are stored as single-column matrices.  Floats are written with repr, which
round-trips exactly, so generated instances reload bit-identically.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
from dataclasses import dataclass, field
from typing import Optional

import numpy as np
import scipy

from .errors import InvalidInputError

__all__ = [
    "save_matrix",
    "load_matrix",
    "save_vector",
    "load_vector",
    "config_digest",
    "RunManifest",
    "CSV_COLUMNS",
    "trial_csv_row",
]

CSV_COLUMNS = (
    "trial", "seed", "m", "N", "p", "family", "support_size",
    "min_rel_magnitude", "kkt_residual", "iterations", "status", "wall_time_ms",
)


def _fmt(v: float) -> str:
    return repr(float(v))


def save_matrix(path, M) -> None:
    M = np.asarray(M, dtype=float)
    if M.ndim != 2:
        raise InvalidInputError(f"expected a matrix, got shape {M.shape}")
    lines = [f"{M.shape[0]} {M.shape[1]}"]
    lines.extend(" ".join(_fmt(v) for v in row) for row in M)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def load_matrix(path) -> np.ndarray:
    with open(path) as fh:
        raw = fh.read().split("\n")
    lines = [ln for ln in (s.strip() for s in raw) if ln]
    if not lines:
        raise InvalidInputError(f"{path}: empty matrix file")
    head = lines[0].split()
    if len(head) != 2:
        raise InvalidInputError(f"{path}: first line must be 'rows cols'")
    try:
        rows, cols = int(head[0]), int(head[1])
    except ValueError as exc:
        raise InvalidInputError(f"{path}: malformed dimension line {lines[0]!r}") from exc
    if rows < 1 or cols < 1 or len(lines) - 1 != rows:
        raise InvalidInputError(
            f"{path}: header says {rows}x{cols} but file has {len(lines) - 1} data lines"
        )
    out = np.empty((rows, cols))
    for i, line in enumerate(lines[1:]):
        parts = line.split()
        if len(parts) != cols:
            raise InvalidInputError(
                f"{path}: row {i} has {len(parts)} entries, expected {cols}"
            )
        try:
            out[i] = [float(tok) for tok in parts]
        except ValueError as exc:
            raise InvalidInputError(f"{path}: non-numeric token in row {i}") from exc
    if not np.all(np.isfinite(out)):
        raise InvalidInputError(f"{path}: non-finite entries")
    return out


def save_vector(path, v) -> None:
    v = np.asarray(v, dtype=float).ravel()
    save_matrix(path, v.reshape(-1, 1))


def load_vector(path) -> np.ndarray:
    M = load_matrix(path)
    if 1 not in M.shape:
        raise InvalidInputError(f"{path}: expected a vector, got shape {M.shape}")
    return M.ravel()


def config_digest(config: dict) -> str:
    """Stable hex digest of a canonicalized (sorted, compact) JSON config."""
    canon = json.dumps(config, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode("utf-8")).hexdigest()


def _numeric_environment() -> dict:
    """What a run's numbers and speed depend on besides its inputs: library
    versions, the CPU count and the BLAS thread settings (None when unset)."""
    return {"python": platform.python_version(), "numpy": np.__version__,
            "scipy": scipy.__version__, "cpu_count": os.cpu_count(),
            **{name: os.environ.get(name)
               for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}}


@dataclass
class RunManifest:
    command: str
    config_digest: str
    master_seed: Optional[int]
    tool_version: str
    started: str
    finished: str
    environment: dict = field(default_factory=_numeric_environment)

    def write(self, path) -> None:
        doc = {
            "command": self.command,
            "config_digest": self.config_digest,
            "master_seed": self.master_seed,
            "tool_version": self.tool_version,
            "started": self.started,
            "finished": self.finished,
            "environment": self.environment,
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, indent=2, sort_keys=True)
            fh.write("\n")


def trial_csv_row(rec) -> str:
    """One CSV data line for a TrialRecord, in the fixed column order."""
    vals = (
        str(rec.trial),
        str(rec.seed),
        str(rec.m),
        str(rec.N),
        _fmt(rec.p),
        rec.family.replace("_", "-"),
        str(rec.support_size),
        _fmt(rec.min_rel_magnitude),
        _fmt(rec.kkt_residual),
        str(rec.iterations),
        rec.status,
        _fmt(rec.wall_time_ms),
    )
    return ",".join(vals)
