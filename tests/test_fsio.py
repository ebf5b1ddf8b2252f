"""The one atomic, durable file write (``repro.fsio``)."""

import os

import pytest

from repro import fsio


def test_atomic_write_replaces_durably(tmp_path):
    path = tmp_path / "value.json"
    fsio.atomic_write_bytes(path, b"old")
    fsio.atomic_write_bytes(path, b"new")
    assert path.read_bytes() == b"new"
    assert list(tmp_path.glob("*.tmp")) == []         # no orphaned temps


def test_failed_rename_keeps_the_old_file_and_no_temp(tmp_path,
                                                      monkeypatch):
    path = tmp_path / "value.json"
    fsio.atomic_write_bytes(path, b"old")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        fsio.atomic_write_bytes(path, b"new")
    assert path.read_bytes() == b"old"
    assert list(tmp_path.glob("*.tmp")) == []
