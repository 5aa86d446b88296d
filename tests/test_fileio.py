"""Artifact writes are atomic: a writer that fails partway leaves the
previous file byte for byte and no temporary file behind."""

import errno
import os
from collections import OrderedDict

import numpy as np
import pytest

from msun import fileio, gen_shapes
from msun.checkpoint import save_snapshot
from msun.cli import _emit
from msun.config import load_config
from msun.data import save_idx
from msun.experiments import LOG_HEADER, _write_csv


class _DiskFull:
    """File wrapper that stores half of the first write, then fails."""

    def __init__(self, fh):
        self._fh = fh

    def write(self, data):
        self._fh.write(data[:len(data) // 2])
        raise OSError(errno.ENOSPC, "no space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return self._fh.__exit__(*exc)


def _writers(tmp_path):
    """Writer name -> (file it writes, write(variant)) for every artifact writer."""
    ds = [gen_shapes(seed, 6, 3, 16) for seed in (1, 2)]
    return {
        "save_snapshot": (tmp_path / "m.msun", lambda v: save_snapshot(
            str(tmp_path / "m.msun"), OrderedDict([("w", np.full(5, v, np.float32))]), [8])),
        "train_log": (tmp_path / "train_log.csv", lambda v: _write_csv(
            str(tmp_path), "train_log.csv", LOG_HEADER, [f"{v},train"])),
        "write_resolved": (tmp_path / "resolved-config.txt", lambda v: load_config(
            None, {"train.seed": str(v)}).write_resolved(str(tmp_path))),
        "emit": (tmp_path / "out.csv", lambda v: _emit(f"row {v}\n", str(tmp_path / "out.csv"))),
        "save_idx": (tmp_path / "d-images.idx", lambda v: save_idx(
            ds[v], str(tmp_path / "d-images.idx"), str(tmp_path / "d-labels.idx"))),
    }


@pytest.mark.parametrize("writer", ["save_snapshot", "train_log", "write_resolved", "emit",
                                    "save_idx"])
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    target, write = _writers(tmp_path)[writer]
    write(0)
    before = target.read_bytes()
    listing = sorted(os.listdir(tmp_path))
    real_open = open
    monkeypatch.setattr(fileio, "open", lambda *a, **k: _DiskFull(real_open(*a, **k)),
                        raising=False)
    with pytest.raises(OSError):
        write(1)
    assert target.read_bytes() == before
    assert sorted(os.listdir(tmp_path)) == listing


def test_clean_write_replaces_the_file(tmp_path):
    path = str(tmp_path / "a.txt")
    for text in ("first\n", "second\n"):
        with fileio.atomic_write(path) as fh:
            fh.write(text)
        assert open(path).read() == text
    assert os.listdir(tmp_path) == ["a.txt"]
