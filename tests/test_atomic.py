import os

import pytest

from refscale.atomic import atomic_write


def test_bytes_written_as_given(tmp_path):
    path = tmp_path / "sub" / "rows.csv"
    atomic_write(path, "a,b\r\nc,é\r\n")
    assert path.read_bytes() == "a,b\r\nc,é\r\n".encode("utf-8")
    assert os.listdir(path.parent) == ["rows.csv"]


def test_two_writers_of_one_path(tmp_path, monkeypatch):
    # A second writer of the same path runs to completion while the first
    # sits between writing its temp file and renaming it.
    path = tmp_path / "summary.txt"
    real_replace = os.replace
    sources = []

    def replace(src, dst):
        sources.append(src)
        if len(sources) == 1:
            atomic_write(path, "second\n")
        real_replace(src, dst)

    monkeypatch.setattr(os, "replace", replace)
    atomic_write(path, "first\n")
    monkeypatch.undo()
    assert len(set(sources)) == 2
    assert all(os.path.dirname(src) == str(tmp_path) for src in sources)
    assert path.read_text() == "first\n"
    assert os.listdir(tmp_path) == ["summary.txt"]


def test_failed_rename_removes_temp_file(tmp_path, monkeypatch):
    path = tmp_path / "fit_report.json"
    path.write_text("old\n")

    def replace(src, dst):
        raise OSError("rename failed")

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError, match="rename failed"):
        atomic_write(path, "new\n")
    assert path.read_text() == "old\n"
    assert os.listdir(tmp_path) == ["fit_report.json"]


def test_failed_write_removes_temp_file(tmp_path):
    path = tmp_path / "summary.txt"
    with pytest.raises(UnicodeEncodeError):
        atomic_write(path, "lone surrogate \ud800")
    assert os.listdir(tmp_path) == []
