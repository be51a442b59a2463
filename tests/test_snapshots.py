"""Tests for the binary snapshot format."""

import numpy as np
import pytest

from bfdsim import FieldState, GridSpec, ModelParams, SnapshotFormatError, SpectralField
from bfdsim.snapshots import load_state, read_snapshot, write_snapshot
from bfdsim.spectral import TWO_PI


def _params():
    return ModelParams(gamma=0.9, epsilon=0.1, mu=0.1, mu2=0.1,
                       a=0.0, b=5.0 / 24.0, c=-1.0 / 12.0, d=5.0 / 24.0)


def _state(grid, seed=0, t=0.375):
    rng = np.random.default_rng(seed)
    zeta = SpectralField.from_real(grid, rng.standard_normal(grid.n))
    v = tuple(SpectralField.from_real(grid, rng.standard_normal(grid.n))
              for _ in range(grid.dim))
    return FieldState(t=t, zeta=zeta, v=v, params=_params())


@pytest.mark.parametrize("dim", [1, 2])
def test_roundtrip_bit_exact(tmp_path, dim):
    grid = GridSpec.square(16, 3.5, dim=dim)
    state = _state(grid, seed=dim)
    path = tmp_path / "state.bfd"
    write_snapshot(path, state)

    t, grid2, zeta, v = read_snapshot(path)
    assert t == state.t
    assert grid2 == grid
    np.testing.assert_array_equal(zeta, state.zeta.values)
    assert len(v) == dim
    for got, want in zip(v, state.v):
        np.testing.assert_array_equal(got, want.values)


@pytest.mark.parametrize("dim", [1, 2])
def test_payload_is_each_field_as_little_endian_float64(tmp_path, dim):
    """After the header line, the file holds zeta's values and then each
    v_j's, row-major little-endian float64: byte for byte their tobytes(),
    whether the values came from real data or from a spectrum."""
    grid = GridSpec(n=(8, 6)[:dim], length=(TWO_PI, 1.25)[:dim])
    state = _state(grid, seed=3)
    spectral = FieldState(t=state.t, zeta=SpectralField(grid, hat=state.zeta.hat),
                          v=state.v, params=state.params)
    for st in (state, spectral):
        path = tmp_path / "payload.bfd"
        write_snapshot(path, st)
        header, payload = path.read_bytes().split(b"\n", 1)
        assert header.startswith(b"BFDv1 ")
        fields = (st.zeta, *st.v)
        assert payload == b"".join(f.values.astype("<f8").tobytes() for f in fields)


def test_roundtrip_rectangular_grid(tmp_path):
    grid = GridSpec(n=(8, 16), length=(TWO_PI, 1.25))
    state = _state(grid, seed=5, t=-2.0)
    path = tmp_path / "rect.bfd"
    write_snapshot(path, state)
    t, grid2, zeta, _ = read_snapshot(path)
    assert t == -2.0 and grid2 == grid
    np.testing.assert_array_equal(zeta, state.zeta.values)


def test_load_state_attaches_params(tmp_path):
    grid = GridSpec.square(8, TWO_PI, dim=2)
    state = _state(grid, seed=9)
    path = tmp_path / "s.bfd"
    write_snapshot(path, state)
    p = _params().replace(epsilon=0.5)
    loaded = load_state(path, p)
    assert isinstance(loaded, FieldState)
    assert loaded.params is p
    assert loaded.t == state.t
    np.testing.assert_array_equal(loaded.zeta.values, state.zeta.values)
    for got, want in zip(loaded.v, state.v):
        np.testing.assert_array_equal(got.values, want.values)


def test_bad_magic_rejected(tmp_path):
    path = tmp_path / "bad.bfd"
    path.write_bytes(b"NOTBFD 1 8 6.28 0.0\n" + b"\x00" * 64)
    with pytest.raises(ValueError, match="not a BFDv1 snapshot"):
        read_snapshot(path)


def test_malformed_header_rejected(tmp_path):
    path = tmp_path / "bad.bfd"
    # dimension token claims 3-d
    path.write_bytes(b"BFDv1 3 8 8 8 6.28 6.28 6.28 0.0\n" + b"\x00" * 64)
    with pytest.raises(ValueError, match="malformed BFDv1 header"):
        read_snapshot(path)
    # wrong token count for the declared dimension
    path.write_bytes(b"BFDv1 2 8 8 6.28 0.0\n" + b"\x00" * 64)
    with pytest.raises(ValueError, match="malformed BFDv1 header"):
        read_snapshot(path)


def test_truncated_payload_rejected(tmp_path):
    grid = GridSpec.square(8, TWO_PI, dim=1)
    state = _state(grid, seed=3)
    path = tmp_path / "t.bfd"
    write_snapshot(path, state)
    blob = path.read_bytes()
    (tmp_path / "cut.bfd").write_bytes(blob[:-16])
    with pytest.raises(ValueError, match="truncated BFDv1 payload"):
        read_snapshot(tmp_path / "cut.bfd")


def test_trailing_bytes_rejected(tmp_path):
    grid = GridSpec.square(8, TWO_PI, dim=1)
    state = _state(grid, seed=3)
    path = tmp_path / "t.bfd"
    write_snapshot(path, state)
    (tmp_path / "long.bfd").write_bytes(path.read_bytes() + b"\0")
    with pytest.raises(ValueError, match="trailing bytes after BFDv1 payload"):
        read_snapshot(tmp_path / "long.bfd")


@pytest.mark.parametrize("header, reason", [
    (b"BFDv1 1 8 6.28 nan", "non-finite time"),
    (b"BFDv1 1 8 nan 0.0", "axis length must be finite"),
    (b"BFDv1 2 8 8 6.28 inf 0.0", "axis length must be finite"),
])
def test_non_finite_header_rejected(tmp_path, header, reason):
    path = tmp_path / "bad.bfd"
    dim = int(header.split()[1])
    path.write_bytes(header + b"\n" + b"\x00" * 8 * 8 ** dim * (dim + 1))
    with pytest.raises(SnapshotFormatError, match=f"malformed BFDv1 header.*{reason}"):
        read_snapshot(path)
