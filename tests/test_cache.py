"""The on-disk table cache: versioned keys, private temp files, and file
text that only a table of this release's format is read back as."""

import copy
import json
import os

import pytest

from hilbfock import cache
from hilbfock.cli import main
from hilbfock.models import builtin_model
from hilbfock.ring import RingEngine


def test_cache_key_includes_version(monkeypatch):
    key = cache.cache_key("abc", "structure-table", n=3)
    assert key == cache.cache_key("abc", "structure-table", n=3)
    monkeypatch.setattr(cache, "__version__", "0.0.0-other")
    assert cache.cache_key("abc", "structure-table", n=3) != key


def test_store_uses_private_temp_file(tmp_path, monkeypatch):
    """Each writer gets its own temp file: a leftover at the old shared
    '<key>.json.tmp' path does not get in the way, and two writes of one key
    use two different temp files."""
    monkeypatch.setenv("HILBFOCK_CACHE_DIR", str(tmp_path))
    key = cache.cache_key("abc", "structure-table", n=3)
    final = tmp_path / key[:2] / (key + ".json")
    final.parent.mkdir()
    (tmp_path / key[:2] / (key + ".json.tmp")).mkdir()
    temps = []
    real_replace = os.replace

    def spy(src, dst):
        temps.append(src)
        real_replace(src, dst)

    monkeypatch.setattr(cache.os, "replace", spy)
    cache.store(key, '{"n": 1}\n')
    cache.store(key, '{\n  "n": 2\n}\n')
    assert len(set(temps)) == 2
    assert all(os.path.dirname(t) == str(final.parent) for t in temps)
    assert cache.load(key) == '{\n  "n": 2\n}\n'
    assert sorted(p.name for p in final.parent.iterdir()) == [
        final.name, key + ".json.tmp"]


@pytest.fixture
def c2_table(tmp_path, monkeypatch, capsys):
    """Run structure-constants for c2 at n=3 against a cache under tmp_path:
    returns the model, the fresh table text and a runner giving the --out
    text and the report."""
    monkeypatch.setenv("HILBFOCK_CACHE_DIR", str(tmp_path / "cache"))
    model = builtin_model("c2")
    fresh = RingEngine(model).structure_constants(3).render(model)
    out = tmp_path / "t.json"

    def run():
        assert main(["structure-constants", "--model", "c2", "--n", "3",
                     "--out", str(out)]) == 0
        return out.read_text(encoding="utf-8"), capsys.readouterr().out

    return model, fresh, run


def test_old_compact_entry_is_not_read_back(tmp_path, c2_table):
    """A compact-JSON table stored under the key of the dict-storing cache
    (kind 'structure-table') is never read back as file bytes."""
    model, fresh, run = c2_table
    old_key = cache.cache_key(model.content_hash, "structure-table",
                              n=3, side="hilbert", s="-1")
    compact = json.dumps(json.loads(fresh), sort_keys=True)
    cache.store(old_key, compact)
    text, _ = run()
    assert text == fresh != compact
    assert cache.load(old_key) == compact
    assert sorted(f.read_text(encoding="utf-8") for f in
                  (tmp_path / "cache").rglob("*.json")) == sorted([compact, fresh])


def test_table_without_s_is_not_read_back(tmp_path, monkeypatch, capsys):
    """An orbifold table at s = -1 cached before it recorded its s (kind
    'structure-table-text') is never read back; the file has "s": "-1"."""
    monkeypatch.setenv("HILBFOCK_CACHE_DIR", str(tmp_path / "cache"))
    model = builtin_model("ale_1")
    table = RingEngine(model, -1).structure_constants(2)
    unrecorded = copy.copy(table)
    unrecorded.s = None
    old_text = unrecorded.render(model)
    assert '"s"' not in old_text
    old_key = cache.cache_key(model.content_hash, "structure-table-text",
                              n=2, side="orbifold", s="-1")
    cache.store(old_key, old_text)
    out = tmp_path / "t.json"
    assert main(["structure-constants", "--model", "ale_1", "--n", "2",
                 "--side", "orbifold", "--s", "-1", "--out", str(out)]) == 0
    capsys.readouterr()
    text = out.read_text(encoding="utf-8")
    assert text == table.render(model) != old_text
    assert json.loads(text)["s"] == "-1"


def test_damaged_entry_is_a_miss(tmp_path, c2_table):
    """A cached file that is not JSON is recomputed, byte for byte, and
    stored again."""
    _, fresh, run = c2_table
    text, report = run()
    assert text == fresh
    (entry,) = (tmp_path / "cache").rglob("*.json")
    entry.write_text(fresh[:len(fresh) // 2], encoding="utf-8")
    again, report_again = run()
    assert again == fresh and report_again == report
    assert entry.read_text(encoding="utf-8") == fresh


def test_failed_store_keeps_the_table(tmp_path, monkeypatch, capsys):
    """A cache root that is a regular file costs one warning, not the
    computed table: --out is written and the command exits 0."""
    root = tmp_path / "not-a-dir"
    root.write_text("", encoding="utf-8")
    monkeypatch.setenv("HILBFOCK_CACHE_DIR", str(root))
    model = builtin_model("c2")
    out = tmp_path / "t.json"
    assert main(["structure-constants", "--model", "c2", "--n", "2",
                 "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8") == \
        RingEngine(model).structure_constants(2).render(model)
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("warning: cache not written: ")
    assert "Not a directory" in err[0]


def test_failed_store_removes_its_temp_file(tmp_path, monkeypatch, capsys):
    """A write that fails after the temp file exists removes it."""
    monkeypatch.setenv("HILBFOCK_CACHE_DIR", str(tmp_path))

    def refuse(src, dst):
        raise PermissionError(13, "Permission denied", dst)

    monkeypatch.setattr(cache.os, "replace", refuse)
    key = cache.cache_key("abc", "structure-table", n=3)
    cache.store(key, '{"n": 1}\n')
    assert list((tmp_path / key[:2]).iterdir()) == []
    assert cache.load(key) is None
    err = capsys.readouterr().err
    assert err.startswith("warning: cache not written: ") and err.count("\n") == 1
