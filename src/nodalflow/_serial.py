"""JSON and CSV helpers: numpy-aware, deterministic serialization."""

from __future__ import annotations

import json

import numpy as np


def jsonable(obj):
    """Coerce numpy scalars and arrays for json.dump's default hook."""
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


def dumps(payload, **kw) -> str:
    kw.setdefault("sort_keys", True)
    return json.dumps(payload, default=jsonable, **kw)


def csv_text(header_lines, columns, rows) -> str:
    """A ``# `` line per header line, the column line, then one line per row.

    A string cell is written as it is, any other cell by ``float.__repr__``
    (np.float64 is a float), so every number reads back bit for bit."""
    lines = [f"# {line}" for line in header_lines]
    lines += [",".join([c if isinstance(c, str) else float.__repr__(c) for c in row])
              for row in (columns, *rows)]
    return "\n".join(lines) + "\n"
