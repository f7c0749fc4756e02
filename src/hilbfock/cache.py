"""Content-addressed on-disk cache for computed tables, as file text.

Enabled by the HILBFOCK_CACHE_DIR environment variable; keys are digests of
the package version, the model content hash and the computation parameters,
so cached artifacts are valid across runs and machines, and a release that
changes results does not read its predecessor's tables.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import os
import sys
import tempfile

from . import __version__


def cache_dir():
    return os.environ.get("HILBFOCK_CACHE_DIR")


def cache_key(model_hash, kind, **params):
    payload = json.dumps({"version": __version__, "model": model_hash,
                          "kind": kind, "params": params}, sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()


def load(key):
    """The text stored under key, or None: a file that is not JSON is a miss."""
    root = cache_dir()
    if not root:
        return None
    path = os.path.join(root, key[:2], key + ".json")
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
        json.loads(text)
    except (OSError, ValueError):
        return None
    return text


def store(key, text):
    """Store text under key.  A write that fails with an OSError leaves one
    warning on stderr and no temp file behind: the caller still has the
    text it computed."""
    root = cache_dir()
    if not root:
        return
    sub = os.path.join(root, key[:2])
    tmp = None
    try:
        os.makedirs(sub, exist_ok=True)
        # a private temp file per writer, so concurrent writers never interleave
        fd, tmp = tempfile.mkstemp(dir=sub, prefix=key, suffix=".tmp")
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, os.path.join(sub, key + ".json"))
    except OSError as exc:
        print(f"warning: cache not written: {exc}", file=sys.stderr)
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.remove(tmp)
