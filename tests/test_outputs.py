"""Every output file is written by `dataset.write_file`: whatever was at the
path is removed first and the file is created anew, so reruns into one
directory give new files, hard links and symlinks at output paths are never
written through, and a failed write leaves no file behind."""

import errno
import json
import os
import pathlib

import numpy as np
import pytest

from minimaxsplit import ConfigError, ImageGrid, write_pgm
from minimaxsplit.cli import main
from minimaxsplit.dataset import write_file
from minimaxsplit.experiments import TrainConfig, _write_csv, _write_json, run_train

RUNS = {
    "sine": None,
    "denoise": {"height": 16, "width": 16, "n_trees": 2, "max_depth": 4,
                "methods": ["tree:minimax", "forest:minimax:m1"]},
}


def run(command, out, seed, config):
    argv = [command, "--seed", str(seed), "--out", str(out)]
    if config is not None:
        argv += ["--config", json.dumps(config)]
    assert main(argv) == 0


def files_of(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("command", sorted(RUNS))
def test_rerun_writes_new_files_with_the_same_bytes(tmp_path, command):
    out, links = tmp_path / "out", tmp_path / "links"
    links.mkdir()
    run(command, out, 0, RUNS[command])
    first = files_of(out)
    for name in first:
        os.link(out / name, links / name)
    run(command, out, 0, RUNS[command])
    assert files_of(out) == first
    for name in first:
        assert not os.path.samefile(out / name, links / name), name
    # another seed changes the outputs, never the old files behind the links
    run(command, out, 1, RUNS[command])
    assert files_of(links) == first
    assert files_of(out) != first


def test_symlinked_output_is_replaced_and_its_target_kept(tmp_path):
    out, target = tmp_path / "out", tmp_path / "target.txt"
    out.mkdir()
    target.write_text("keep")
    (out / "manifest.json").symlink_to(target)
    (out / "sine_trace.csv").symlink_to(tmp_path / "nowhere")  # dangling
    run("sine", out, 0, None)
    for name in ("manifest.json", "sine_trace.csv"):
        assert not (out / name).is_symlink() and (out / name).is_file(), name
    assert target.read_text() == "keep"
    assert not (tmp_path / "nowhere").exists()
    assert json.loads((out / "manifest.json").read_text())["experiment"] == "sine"


def test_write_file_takes_text_and_bytes(tmp_path):
    path = tmp_path / "f"
    path.write_text("an old, longer file")
    write_file(path, ["Ωmega", b"\x00\xff", "\n"])
    assert path.read_bytes() == "Ωmega".encode("utf-8") + b"\x00\xff\n"


def test_failing_chunks_leave_no_file(tmp_path):
    path = tmp_path / "f"
    path.write_text("old")

    def chunks():
        yield "first block\n"
        raise ValueError("bad row")

    with pytest.raises(ValueError, match="bad row"):
        write_file(path, chunks())
    assert not path.exists()


class FailingFile:
    """A file whose first write stores half its bytes, then fails as a full
    disk does."""

    def __init__(self, fh):
        self.fh = fh

    def write(self, data):
        self.fh.write(data[:len(data) // 2])
        self.fh.flush()
        raise OSError(errno.ENOSPC, "No space left on device")

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()


@pytest.fixture
def full_disk(monkeypatch):
    """Files opened to be created fail; reads and plain writes work."""
    real_open = pathlib.Path.open

    def opener(self, mode="r", *args, **kwargs):
        fh = real_open(self, mode, *args, **kwargs)
        return FailingFile(fh) if "x" in mode else fh

    monkeypatch.setattr(pathlib.Path, "open", opener)


def _train(tmp_path):
    data = tmp_path / "data.csv"
    data.write_text("a,b,y\n" + "".join(f"{i % 7},{i % 3},{i % 5}\n" for i in range(40)))
    cfg = TrainConfig(data=str(data), target="y", model="forest", n_trees=2, m_try=1)
    run_train(cfg, out=tmp_path)


WRITERS = {
    "pgm-p2": lambda d: write_pgm(ImageGrid(pixels=np.full((3, 4), 0.5)), d / "model.json"),
    "pgm-p5": lambda d: write_pgm(ImageGrid(pixels=np.full((3, 4), 0.5)), d / "model.json",
                                  binary=True),
    "csv": lambda d: _write_csv(d, "model.json", ("a", "b"), ([1] * 5000, [2.5] * 5000)),
    "json": lambda d: _write_json(d, "model.json", {"a": [1, 2, 3]}),
    "model": _train,
}


@pytest.mark.parametrize("kind", sorted(WRITERS))
def test_failed_write_leaves_no_file(tmp_path, full_disk, kind):
    (tmp_path / "model.json").write_bytes(b"an earlier run")
    with pytest.raises(ConfigError, match="model.json: cannot write .No space left"):
        WRITERS[kind](tmp_path)
    assert not (tmp_path / "model.json").exists()
