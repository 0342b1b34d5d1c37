"""Atomic writes: content, no leftover temp files, permissions from the umask."""

import os
import stat

from eadforecast.fileio import atomic_write_bytes


def test_mode_follows_umask(tmp_path):
    old = os.umask(0o022)
    try:
        atomic_write_bytes(tmp_path / "shared.bin", b"a")
        os.umask(0o077)
        atomic_write_bytes(tmp_path / "private.bin", b"b")
    finally:
        os.umask(old)
    assert stat.S_IMODE((tmp_path / "shared.bin").stat().st_mode) == 0o644
    assert stat.S_IMODE((tmp_path / "private.bin").stat().st_mode) == 0o600


def test_overwrite_leaves_only_the_target(tmp_path):
    target = tmp_path / "out" / "data.csv"
    atomic_write_bytes(target, b"first")
    atomic_write_bytes(target, b"second")
    assert target.read_bytes() == b"second"
    assert [p.name for p in target.parent.iterdir()] == ["data.csv"]
