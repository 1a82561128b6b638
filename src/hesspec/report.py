"""Plain-text table and structured-document emission.

Tables are one '#'-prefixed header line followed by comma-separated
columns at 17 significant digits.  Documents are JSON objects with the
fixed top-level keys {spec_echo, results, seeds, tool_version}, so any
report can be reproduced from its own file.  Both writers print to
stdout when the path is None.
"""
from __future__ import annotations

import json
import sys

import numpy as np


def _fmt(x):
    return "%.17g" % float(x)


def _write(path, text):
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)
    return path


def emit_table(path, header, rows):
    """Write a table file: '# a,b,...' then one comma-joined row per line."""
    lines = ["# " + ",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    return _write(path, "\n".join(lines) + "\n")


def _jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(v) for v in obj]
    return obj


def emit_document(path, spec_echo, results, seeds, tool_version):
    """Write a structured report document as deterministic JSON."""
    doc = {
        "spec_echo": _jsonable(spec_echo),
        "results": _jsonable(results),
        "seeds": _jsonable(seeds),
        "tool_version": tool_version,
    }
    return _write(path, json.dumps(doc, indent=1, sort_keys=True) + "\n")
