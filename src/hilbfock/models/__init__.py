"""Built-in surface models shipped as JSON data files."""

from __future__ import annotations

import json
import os
from importlib import resources

from ..errors import ModelError
from ..rational import load_json
from ..surface import SurfaceModel

BUILTIN = (
    "c2", "p2", "toy_b2_1", "odd_toy",
    "ale_1", "ale_2", "k3_like", "cotangent_g1",
)

# the spec-facing spellings
ALIASES = {
    "toy_b2=1": "toy_b2_1",
    "cotangent_g=1": "cotangent_g1",
    "ale_k": "ale_2",
}


def builtin_model(name):
    name = ALIASES.get(name, name)
    if name not in BUILTIN:
        raise ModelError(f"unknown built-in model {name!r} (have {', '.join(BUILTIN)})")
    data = resources.files(__package__).joinpath(f"{name}.json").read_text("utf-8")
    return SurfaceModel.from_json(json.loads(data))


def load_model(spec):
    """Load a model from a file path, or fall back to a built-in name."""
    if os.path.exists(spec):
        with open(spec, encoding="utf-8") as fh:
            return SurfaceModel.from_json(load_json(fh.read(), "--model"))
    return builtin_model(spec)
