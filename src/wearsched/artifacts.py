"""Artifact readers/writers: policy, value and Q-factor grids as CSV, plus
JSON summaries.

CSV grids are written in row-major order (channel age outer, information age
inner) with unix newlines; values use 17 significant digits so doubles
round-trip exactly. Writers are deterministic: identical inputs produce
byte-identical files.

Readers accept the rows in any order and skip whitespace-only lines; every
state of the grid must appear exactly once, and there are no comments.
"""

from __future__ import annotations

import itertools
import json
import warnings
from pathlib import Path

import numpy as np

from .errors import ArtifactParseError, DomainError, MissingArtifactError
from .solvers import Policy

POLICY_HEADER = "tau,delta,action"
VALUE_HEADER = "tau,delta,value"
Q_HEADER = "tau,delta,q_idle,q_transmit,q_renew"


# The writer formats a grid one block of channel-age rows at a time, sized so
# that the block's NUL-padded lines take at most this many bytes; this bounds
# the memory a write uses beyond the grid itself.
WRITE_BLOCK_BYTES = 1 << 18
# Longest field either format can render: %.17g of a double, as in
# -2.2250738585072014e-308, or %d of a 64-bit integer.
_FIELD_BYTES = 24


def _padded(labels: list[str]) -> np.ndarray:
    """The labels as rows of a uint8 matrix, each padded with NULs to the
    longest."""
    b = np.array(labels, dtype=bytes)
    return b.view(np.uint8).reshape(len(b), b.itemsize)


def _format_distinct(block: np.ndarray, field_fmt: str) -> tuple[np.ndarray, np.ndarray]:
    """Every distinct value of the block formatted once, as the rows of a
    NUL-padded uint8 matrix, and the row of each value of the block. Doubles
    are told apart by their bits, so 0.0 and -0.0 stay distinct."""
    if field_fmt == "%d":
        uniq, inv = np.unique(block.reshape(-1), return_inverse=True)
    else:
        keys = np.asarray(block, dtype=np.float64).view(np.uint64).reshape(-1)
        uniq, inv = np.unique(keys, return_inverse=True)
        uniq = uniq.view(np.float64)
    values = uniq.tolist()
    # One template call renders every field left-justified in _FIELD_BYTES
    # columns; no field contains a space, so the spaces are all padding.
    padded_fmt = field_fmt.replace("%", f"%-{_FIELD_BYTES}")
    text = (padded_fmt * len(values) % tuple(values)).replace(" ", "\0").encode()
    table = np.frombuffer(text, dtype=np.uint8).reshape(len(values), _FIELD_BYTES)
    return table[:, : np.count_nonzero(table.any(axis=0))], inv.reshape(block.shape)


def _write_grid(path: str | Path, header: str, field_fmt: str, grid: np.ndarray) -> None:
    """Write a (tau_max, delta_max, k) grid as one CSV line per state.

    Each block of channel-age rows is written at once: its fields are
    gathered into a matrix of NUL-padded lines, the NULs are dropped, and
    the rest is the block's text."""
    t_max, d_max, k = grid.shape
    taus = _padded([f"{t}," for t in range(1, t_max + 1)])
    deltas = _padded([f"{d}," for d in range(1, d_max + 1)])
    prefix = taus.shape[1] + deltas.shape[1]
    rows = max(1, WRITE_BLOCK_BYTES // (d_max * (prefix + k * (_FIELD_BYTES + 1))))
    with open(path, "wb") as f:
        f.write(f"{header}\n".encode())
        for t0 in range(0, t_max, rows):
            table, inv = _format_distinct(grid[t0 : t0 + rows], field_fmt)
            n, width = len(inv), table.shape[1]
            lines = np.zeros((n, d_max, prefix + k * (width + 1)), dtype=np.uint8)
            lines[:, :, : taus.shape[1]] = taus[t0 : t0 + n, None]
            lines[:, :, taus.shape[1] : prefix] = deltas
            for j in range(k):
                col = prefix + j * (width + 1)
                lines[:, :, col : col + width] = table[inv[:, :, j]]
                lines[:, :, col + width] = ord(",") if j < k - 1 else ord("\n")
            f.write(lines[lines != 0])


def write_policy_csv(path: str | Path, policy: Policy) -> None:
    _write_grid(path, POLICY_HEADER, "%d", policy.actions[:, :, None])


def write_value_csv(path: str | Path, v: np.ndarray) -> None:
    _write_grid(path, VALUE_HEADER, "%.17g", v[:, :, None])


def write_q_csv(path: str | Path, q: np.ndarray) -> None:
    _write_grid(path, Q_HEADER, "%.17g", q)


def _loadtxt(lines, dtype) -> np.ndarray:
    with warnings.catch_warnings():
        # Older numpy releases read a float ("1.5") into an integer field
        # with a DeprecationWarning instead of rejecting it.
        warnings.simplefilter("error", DeprecationWarning)
        # Input with no data rows is reported by the callers.
        warnings.simplefilter("ignore", UserWarning)
        return np.loadtxt(lines, dtype=dtype, delimiter=",", comments=None, ndmin=1)


def _text_lines(f, block: int = 1 << 16):
    """Yield the lines of a text file in lists, one block of text at a time,
    split as ``str.splitlines`` splits the whole text: a cut right after a
    newline is a line boundary."""
    carry = ""
    for text in iter(lambda: f.read(block), ""):
        text = carry + text
        cut = text.rfind("\n") + 1
        carry = text[cut:]
        yield text[:cut].splitlines()
    yield carry.splitlines()


def _stream_rows(p: Path, header: str, dtype) -> np.ndarray | None:
    """The data rows of a well-formed file, parsed as the file is read; None
    when the file is not well formed, e.g. has whitespace-only lines."""
    try:
        with open(p) as f:
            lines = itertools.chain.from_iterable(_text_lines(f))
            if next(lines, "").strip() != header:
                return None
            rows = _loadtxt(lines, dtype)
    except (ValueError, DeprecationWarning):  # UnicodeDecodeError is a ValueError
        return None
    return rows if len(rows) else None


def _diagnose_rows(p: Path, header: str, dtype) -> np.ndarray:
    """The data rows of the file read as a whole: whitespace-only lines are
    skipped, and an error names the first malformed line, a field-count
    error before a parse error."""
    try:
        lines = p.read_text().splitlines()
    except UnicodeDecodeError as exc:
        raise ArtifactParseError(f"{p}: {exc}") from exc
    if not lines or lines[0].strip() != header:
        raise ArtifactParseError(f"{p}: expected header {header!r}")
    n_fields = len(dtype)
    body = lines[1:]

    # A line with the wrong comma count is either whitespace only (skipped)
    # or malformed.
    commas = np.fromiter(map(str.count, body, itertools.repeat(",")), np.int64, len(body))
    ok = commas == n_fields - 1
    for i in np.flatnonzero(~ok):
        if body[i].strip():
            raise ArtifactParseError(f"{p}:{i + 2}: expected {n_fields} fields, got {commas[i] + 1}")
    if not ok.all():
        body = list(itertools.compress(body, ok))
    if not body:
        raise ArtifactParseError(f"{p}: no data rows")
    try:
        return _loadtxt(body, dtype)
    except (ValueError, DeprecationWarning) as exc:
        raise ArtifactParseError(f"{p}: {exc}") from exc


def _read_grid(path: str | Path, header: str, value_dtype: type) -> np.ndarray:
    """Read a CSV grid written by ``_write_grid`` into a (tau_max, delta_max, k)
    array of ``value_dtype``, where k is the number of value columns the
    header names. The grid size is the largest state in the file.

    A well-formed file is parsed in one streamed pass; only a file that fails
    it is read again as a whole, to skip whitespace-only lines or name the
    line at fault."""
    p = Path(path)
    if not p.is_file():
        raise MissingArtifactError(f"artifact not found: {p}")
    names = header.split(",")
    dtype = [(names[0], np.int64), (names[1], np.int64)] + [(n, value_dtype) for n in names[2:]]
    rows = _stream_rows(p, header, dtype)
    if rows is None:
        rows = _diagnose_rows(p, header, dtype)

    tau, delta = rows[names[0]], rows[names[1]]
    outside = np.flatnonzero((tau < 1) | (delta < 1))
    if len(outside):
        i = outside[0]
        raise ArtifactParseError(f"{p}: state ({tau[i]},{delta[i]}) outside grid")
    t_max, d_max = int(tau.max()), int(delta.max())
    if len(rows) != t_max * d_max:
        raise ArtifactParseError(
            f"{p}: expected {t_max * d_max} rows for a {t_max}x{d_max} grid, got {len(rows)}"
        )
    flat = (tau - 1) * d_max + (delta - 1)
    missing = np.flatnonzero(np.bincount(flat, minlength=t_max * d_max) == 0)
    if len(missing):
        ti, dj = divmod(int(missing[0]), d_max)
        raise ArtifactParseError(f"{p}: missing state ({ti + 1},{dj + 1})")

    grid = np.empty((t_max * d_max, len(names) - 2), dtype=value_dtype)
    for j, name in enumerate(names[2:]):
        grid[flat, j] = rows[name]
    return grid.reshape(t_max, d_max, -1)


def _reject_non_finite(path: str | Path, grid: np.ndarray) -> None:
    bad = np.argwhere(~np.isfinite(grid))
    if len(bad):
        x = grid[tuple(bad[0])]
        name = "NaN" if np.isnan(x) else f"{x:g}"
        raise ArtifactParseError(f"{path}: {name} at state ({bad[0][0] + 1},{bad[0][1] + 1})")


def read_policy_csv(path: str | Path) -> Policy:
    acts = _read_grid(path, POLICY_HEADER, np.int64)[:, :, 0]
    try:
        return Policy(actions=acts)
    except DomainError as exc:
        raise ArtifactParseError(f"{path}: {exc}") from exc


def read_value_csv(path: str | Path) -> np.ndarray:
    v = _read_grid(path, VALUE_HEADER, np.float64)[:, :, 0]
    _reject_non_finite(path, v)
    return v


def read_q_csv(path: str | Path) -> np.ndarray:
    q = _read_grid(path, Q_HEADER, np.float64)
    _reject_non_finite(path, q)
    return q


def write_json(path: str | Path, payload: dict) -> None:
    Path(path).write_text(json.dumps(payload, indent=2, sort_keys=False) + "\n")
