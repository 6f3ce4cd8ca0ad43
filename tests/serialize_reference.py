"""Test-side reference for the serializers: ``to_jsonable`` and ``_format_cell``
as they were before their exact-type fast paths, kept verbatim, with the
``dumps_json`` (``json.dumps`` of the converted copy) and ``rows_to_csv``
built on them, so the one-pass writers can be checked byte for byte against
them."""

import csv
import io
import json
import math

import numpy as np


def _round_float(x: float) -> float:
    if math.isnan(x) or math.isinf(x):
        return x
    return float(f"{x:.9g}")


def to_jsonable(obj):
    """Recursively convert to JSON-ready types with 9-digit floats."""
    if isinstance(obj, dict):
        return {str(k): to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [to_jsonable(v) for v in obj]
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return _round_float(float(obj))
    return obj


def dumps_json(data: dict) -> str:
    """Strict JSON text, keys sorted; a NaN or infinity raises ValueError."""
    text = json.dumps(to_jsonable(data), sort_keys=True, indent=2, allow_nan=False)
    return text + "\n"


def _format_cell(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not CSV compliant: {value}")
        return f"{float(value):.9g}"
    return str(value)


def rows_to_csv(columns: list[str], rows: list) -> str:
    """CSV text with a header row; rows may be lists or dicts; NaN/inf raise."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        if isinstance(row, dict):
            writer.writerow([_format_cell(row[c]) for c in columns])
        else:
            writer.writerow([_format_cell(v) for v in row])
    return buf.getvalue()
