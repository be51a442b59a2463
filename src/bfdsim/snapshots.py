"""Binary state snapshots.

Format BFDv1: one ASCII header line

    BFDv1 dim n1 [n2] L1 [L2] t

followed by the raw field data as row-major little-endian float64, zeta
first, then each velocity component.  Floats in the header are written
with repr-style shortest round-trip formatting, so write/read is
bit-exact.
"""

from __future__ import annotations

import numpy as np

from .errors import SnapshotFormatError
from .params import ModelParams
from .spectral import GridSpec, SpectralField
from .system import FieldState

MAGIC = "BFDv1"


def write_snapshot(path, state: FieldState) -> None:
    grid = state.grid
    parts = [MAGIC, str(grid.dim)]
    parts += [str(m) for m in grid.n]
    parts += [repr(float(L)) for L in grid.length]
    parts.append(repr(float(state.t)))
    header = " ".join(parts) + "\n"
    with open(path, "wb") as fh:
        fh.write(header.encode("ascii"))
        # each field's buffer goes to the file as it is, with no bytes copy
        for f in (state.zeta, *state.v):
            fh.write(np.ascontiguousarray(f.values, dtype="<f8").data)


def read_snapshot(path):
    """Return (t, grid, zeta_values, v_values) from a BFDv1 file; raise
    SnapshotFormatError if it is malformed or its time or grid not finite."""
    with open(path, "rb") as fh:
        header = fh.readline().decode("ascii", errors="replace").split()
        if not header or header[0] != MAGIC:
            raise SnapshotFormatError(f"{path}: not a {MAGIC} snapshot")
        try:
            dim = int(header[1])
            if dim not in (1, 2) or len(header) != 2 + 2 * dim + 1:
                raise ValueError(f"{len(header)} tokens")
            n = tuple(int(tok) for tok in header[2:2 + dim])
            length = tuple(float(tok) for tok in header[2 + dim:2 + 2 * dim])
            t = float(header[-1])
            if not np.isfinite(t):
                raise ValueError(f"non-finite time {t}")
            grid = GridSpec(n=n, length=length)
        except (IndexError, ValueError) as exc:
            raise SnapshotFormatError(f"{path}: malformed {MAGIC} header ({exc})") from exc
        count = grid.npoints
        fields = []
        for _ in range(dim + 1):
            buf = fh.read(8 * count)
            if len(buf) != 8 * count:
                raise SnapshotFormatError(f"{path}: truncated {MAGIC} payload")
            fields.append(np.frombuffer(buf, dtype="<f8").reshape(n).copy())
        if fh.read(1):
            raise SnapshotFormatError(f"{path}: trailing bytes after {MAGIC} payload")
    return t, grid, fields[0], tuple(fields[1:])


def load_state(path, params: ModelParams) -> FieldState:
    """Read a snapshot and attach model parameters."""
    t, grid, zeta, v = read_snapshot(path)
    return FieldState(t=t, zeta=SpectralField(grid, real=zeta),
                      v=tuple(SpectralField(grid, real=c) for c in v),
                      params=params)
