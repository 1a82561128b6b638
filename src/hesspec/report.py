"""Plain-text table and structured-document emission.

Tables are one '#'-prefixed header line followed by comma-separated
columns at 17 significant digits.  Documents are JSON objects with the
fixed top-level keys {spec_echo, results, seeds, tool_version}; the
echo holds the resolved spec with its quadrature order, so any report
can be reproduced from its own file, and an unbounded support end is
null.  Both writers print to stdout when the path is None.
"""
from __future__ import annotations

import json
import sys

from ._version import __version__


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


def emit_document(path, spec_echo, results, seeds):
    """Write a structured report document as deterministic JSON, stamped
    with this package's version."""
    doc = {"spec_echo": spec_echo, "results": results, "seeds": seeds,
           "tool_version": __version__}
    text = json.dumps(doc, indent=1, sort_keys=True,
                      default=lambda o: o.tolist())
    return _write(path, text + "\n")
