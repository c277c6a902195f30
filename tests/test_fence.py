"""state/guard.py publish / fence / build_once, without Ray."""

from __future__ import annotations

import json
import os

import pytest

from file_analyzer_ray.state import guard


def _entries(d) -> list[str]:
    return sorted(os.listdir(d))


def test_failing_writer_publishes_nothing(tmp_path):
    path = str(tmp_path / "part-00000.parquet")

    def write(tmp: str) -> None:
        with open(tmp, "w") as f:
            f.write("half")
        raise RuntimeError("crash mid-write")

    with pytest.raises(RuntimeError):
        guard.publish(path, write)
    assert _entries(tmp_path) == []

    guard.publish(path, lambda tmp: open(tmp, "w").close())
    assert _entries(tmp_path) == ["part-00000.parquet"]


def test_fenced_skips_torn_and_orphaned_manifests(tmp_path):
    d = str(tmp_path)
    for stem in ("a", "b"):
        open(os.path.join(d, f"shard-{stem}.parquet"), "w").close()
    guard.fence(d, "shard-a.manifest.json", {"shard": "a", "data_file": "shard-a.parquet"})
    # torn: the writer died mid-json
    with open(os.path.join(d, "shard-b.manifest.json"), "w") as f:
        f.write('{"shard": "b", "data_fi')
    # orphaned: its data file is gone
    guard.fence(d, "shard-c.manifest.json", {"shard": "c", "data_file": "shard-c.parquet"})
    # another sink's fence under the same directory
    open(os.path.join(d, "part-00000.parquet"), "w").close()
    guard.fence(d, "00000.manifest.json", {"partition_id": 0, "data_file": "part-00000.parquet"})

    assert [m["shard"] for m in guard.fenced(d, "shard-")] == ["a"]
    assert len(guard.fenced(d)) == 2
    assert guard.fenced(str(tmp_path / "missing")) == []
    with open(os.path.join(d, "shard-a.manifest.json")) as f:
        assert json.load(f)["data_file"] == "shard-a.parquet"
    assert not [n for n in _entries(d) if ".tmp" in n]


@pytest.fixture
def cache_root(tmp_path, monkeypatch):
    root = tmp_path / "cache"
    root.mkdir()
    monkeypatch.setattr(guard, "CACHE_ROOT", str(root))
    src = tmp_path / "input.parquet"
    src.write_bytes(b"v1" * 100)
    return root, src


def _make(calls: list):
    def make(tmp: str) -> None:
        calls.append(tmp)
        with open(os.path.join(tmp, "layout"), "w") as f:
            f.write(str(len(calls)))
    return make


def test_build_once_failed_make_is_not_trusted(cache_root):
    root, src = cache_root

    def broken(tmp: str) -> None:
        open(os.path.join(tmp, "partial"), "w").close()
        raise RuntimeError("crash mid-build")

    with pytest.raises(RuntimeError):
        guard.build_once("t", [str(src)], broken)
    assert _entries(root) == []

    calls: list = []
    dest = guard.build_once("t", [str(src)], _make(calls))
    assert _entries(dest) == ["layout"] and len(calls) == 1
    # reused, not rebuilt
    assert guard.build_once("t", [str(src)], _make(calls)) == dest
    assert len(calls) == 1
    assert _entries(root) == [os.path.basename(dest)]


def test_build_once_keys_on_content_and_params(cache_root):
    root, src = cache_root
    calls: list = []
    first = guard.build_once("t", [str(src)], _make(calls))
    assert guard.build_once("t", [str(src)], _make(calls), extra=(16,)) != first
    assert guard.build_once("u", [str(src)], _make(calls)) != first
    src.write_bytes(b"v2" * 100)  # same path, same size, new bytes
    assert guard.build_once("t", [str(src)], _make(calls)) != first
    assert len(calls) == 4


def test_build_once_lost_rename_race_uses_winner(cache_root):
    root, src = cache_root
    winner: list = []

    def make(tmp: str) -> None:
        # a concurrent builder publishes dest while this one is building
        dest = tmp[: tmp.rindex(".tmp")]
        os.makedirs(dest)
        with open(os.path.join(dest, "layout"), "w") as f:
            f.write("winner")
        winner.append(dest)
        with open(os.path.join(tmp, "layout"), "w") as f:
            f.write("loser")

    dest = guard.build_once("t", [str(src)], make)
    assert dest == winner[0]
    with open(os.path.join(dest, "layout")) as f:
        assert f.read() == "winner"
    assert _entries(root) == [os.path.basename(dest)]
