"""Atomic writes: content, no leftover temp files, permissions from the umask,
the previous file kept when a write fails; and the CSV table writer's cells."""

import os
import stat

import numpy as np
import pytest

from eadforecast.fileio import atomic_write_bytes, atomic_write_chunks, write_table


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


def test_a_failed_write_keeps_the_previous_file(tmp_path):
    # The chunk iterable raises after its first chunk has been written to
    # the temp file: the target keeps its bytes, and no .data.csv.* is left.
    target = tmp_path / "data.csv"
    atomic_write_bytes(target, b"previous")

    def chunks():
        yield b"partial"
        raise RuntimeError("chunk source failed")

    with pytest.raises(RuntimeError, match="chunk source failed"):
        atomic_write_chunks(target, chunks())
    assert target.read_bytes() == b"previous"
    assert [p.name for p in tmp_path.iterdir()] == ["data.csv"]


def test_table_cells(tmp_path):
    # A float cell, numpy's included, is the repr of the float (numpy 2's
    # repr of an np.float64 names its type); any other cell is its str.
    path = tmp_path / "t.csv"
    write_table(path, ["a", "b", "c", "d"], [[np.float64(0.1), 2.0, np.int64(3), "x"], (5, -0.0, 1e-300, "")])
    assert path.read_text() == "a,b,c,d\n0.1,2.0,3,x\n5,-0.0,1e-300,\n"
