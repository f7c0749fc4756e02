"""Machine-readable run reports for the command-line front end."""

from __future__ import annotations

import json
import sys


class RunReport:
    """Outcome of one CLI command: deterministic given model and parameters.

    Timing is measured but only serialized on request, so that default
    reports are byte-identical across repeated runs.
    """

    def __init__(self, command, model_hash, params, status, witnesses=None,
                 details=None, timing_ms=None):
        self.command = command
        self.model_hash = model_hash
        self.params = params
        self.status = status
        self.witnesses = witnesses or []
        self.details = details or {}
        self.timing_ms = timing_ms

    @property
    def ok(self):
        return self.status == "pass"

    def to_json(self, with_timing=False):
        out = {
            "command": self.command,
            "model": self.model_hash,
            "params": self.params,
            "status": self.status,
            "witnesses": self.witnesses,
            "details": self.details,
        }
        if with_timing and self.timing_ms is not None:
            out["timing_ms"] = self.timing_ms
        return out

    def emit(self, pretty=False, with_timing=False):
        stream = sys.stdout
        obj = self.to_json(with_timing=with_timing)
        if pretty:
            json.dump(obj, stream, indent=2, sort_keys=True)
        else:
            json.dump(obj, stream, sort_keys=True, separators=(",", ":"))
        stream.write("\n")
