"""The on-disk table cache: versioned keys and private temp files."""

import os

from hilbfock import cache


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
    cache.store(key, {"n": 1})
    cache.store(key, {"n": 2})
    assert len(set(temps)) == 2
    assert all(os.path.dirname(t) == str(final.parent) for t in temps)
    assert cache.load(key) == {"n": 2}
    assert sorted(p.name for p in final.parent.iterdir()) == [
        final.name, key + ".json.tmp"]
