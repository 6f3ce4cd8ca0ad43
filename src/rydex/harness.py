"""Robustness scans and serialization.

The scan's records, stages and kernel live in ``scan``, loaded on first use, so a
command compiles only what it runs. All output helpers serialize floats with 9
significant digits and sort keys, so a fixed seed and config produce byte-identical
files; each keeps a number's text in a bounded memo.
"""

from __future__ import annotations

import importlib
import io
import json
import math
from json.encoder import encode_basestring_ascii as _json_string

import numpy as np

__all__ = ["SCHEMA", "robustness_scan", "dumps_json", "rows_to_csv"]

SCHEMA = "rydex/1"

# the names perfbench reads here, each loaded from its home on first use (PEP 562) and
# kept; robustness_scan reads its two stages through here, so the tracer times each
_LAZY = {"RobustnessConfig": "scan", "pair_couplings": "protocols", "_sample_omegas": "scan",
         "_batched_pulse3_fidelities": "scan"}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = globals()[name] = getattr(importlib.import_module(f"{__package__}.{_LAZY[name]}"), name)
    return value


def robustness_scan(cfg: RobustnessConfig) -> FidelityHistogram:
    """Fidelity distribution of the protocol under drive dispersion.

    Pulse 2 runs once at the nominal frequency (its duration fixed by
    the quadratic-correction formula), and once per process for each of
    the last few working points; every sample, drawn by ``_sample_omegas``,
    then propagates pulse 3 with four independently dispersed Rabi
    frequencies for the fixed nominal half-period, in batches
    (``_batched_pulse3_fidelities``). A large scan forks once where that is
    safe, the caller and the child each drawing and propagating half of the
    rows (``scan._forked_fidelities``); the histogram is taken over all of them.
    """
    from .harness import _batched_pulse3_fidelities, _sample_omegas  # see __getattr__
    from .scan import _float_key, _forked_fidelities, _histogram, _pulse2_point

    point = (cfg.omega_khz, cfg.v_plus_khz, cfg.v_minus_khz)
    _, tau3, v_s, v_c, psi2 = _pulse2_point(*map(_float_key, point))
    fids = _forked_fidelities(cfg, _sample_omegas, _batched_pulse3_fidelities, psi2, v_s, v_c, tau3)
    if fids is None:  # a small scan, or no second process to be had
        fids = _batched_pulse3_fidelities(psi2, _sample_omegas(cfg), v_s, v_c, tau3)
    return _histogram(fids, cfg.samples)


# ---------------------------------------------------------------------------
# serialization


def histogram_payload(cfg: RobustnessConfig, hist: FidelityHistogram) -> dict:
    return {
        "schema": SCHEMA,
        "command": "robustness",
        "epsilon": cfg.epsilon, "samples": cfg.samples, "seed": cfg.seed,
        "omega_khz": cfg.omega_khz, "v_plus_khz": cfg.v_plus_khz, "v_minus_khz": cfg.v_minus_khz,
        "bin_edges": list(hist.bin_edges),
        "counts": list(hist.counts),
        "fraction_above": {f"{t:.2f}": v for t, v in hist.fraction_above.items()},
        "mean": hist.mean,
        "minimum": hist.minimum,
    }


def histogram_rows(hist: FidelityHistogram) -> tuple[list[str], list[list]]:
    """CSV view: one row per bin, the first row being the underflow bin."""
    edges, counts = hist.bin_edges, hist.counts
    return ["bin_lo", "bin_hi", "count"], [[0.0, edges[0], counts[0]],
                                           *map(list, zip(edges, edges[1:], counts[1:]))]


# Most numbers each memo keeps the text of; a full memo starts over (bin edges and
# counts repeat). An int's text is the same in JSON and CSV, a float's is not; ints and
# floats have memos of their own, as 1 == 1.0 and 10**20 == 1e20 as keys
_FLOAT_TEXTS = 1024
_json_floats: dict[float, str] = {}
_csv_floats: dict[float, str] = {}
_int_texts: dict[int, str] = {}


def _remember(memo: dict, x, text: str) -> str:
    if x or type(x) is int:  # 0.0 == -0.0 as keys, and their texts differ: no float 0 kept
        if len(memo) >= _FLOAT_TEXTS:
            memo.clear()
        memo[x] = text
    return text


def _int_text(x: int) -> str:
    """``int.__repr__(x)``, kept in the int memo."""
    return _remember(_int_texts, x, int.__repr__(x))


def _memo_texts(memo: dict, values, miss) -> list[str]:
    """The text of each of ``values`` (a list or tuple) from ``memo``, where only the
    values it lacks go through ``miss``, in order, so the first bad one raises."""
    texts = list(map(memo.get, values))
    at = -1
    for _ in range(texts.count(None)):
        at = texts.index(None, at + 1)
        texts[at] = miss(values[at])
    return texts


def _json_float(x: float) -> str:
    """The JSON text of ``x`` rounded to 9 significant digits."""
    text = _json_floats.get(x)
    if text is None:
        if not math.isfinite(x):
            raise ValueError(f"Out of range float values are not JSON compliant: {x!r}")
        text = _remember(_json_floats, x, repr(float(f"{x:.9g}")))
    return text


def _bracketed(brackets: str, texts: list[str], newline: str | None) -> str:
    """``texts`` between ``brackets``: on one line where ``newline`` is None, else one
    to a line, indented past ``newline``."""
    if newline is None:
        return brackets[0] + ", ".join(texts) + brackets[1]
    inner = newline + "  "
    return brackets[0] + inner + ("," + inner).join(texts) + newline + brackets[1]


def _json_text(obj, newline: str | None) -> str:
    """``obj`` as ``json.dumps`` writes it with sorted keys, floats rounded to 9
    significant digits and numpy scalars as their Python values: at ``indent=2``,
    ``newline`` being its own line's break and indent, or on one line where it is None."""
    kind = type(obj)
    if kind is float:
        return _json_float(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is str:
        return _json_string(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = {str(k): v for k, v in obj.items()}
        inner = newline and newline + "  "
        fields = [f"{_json_string(k)}: {_json_text(items[k], inner)}" for k in sorted(items)]
        return _bracketed("{}", fields, newline)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline and newline + "  "
        kinds = set(map(type, obj))
        if kinds == {float}:
            texts = _memo_texts(_json_floats, obj, _json_float)
        elif kinds == {int}:
            texts = _memo_texts(_int_texts, obj, _int_text)
        else:
            texts = [_json_text(v, inner) for v in obj]
        return _bracketed("[]", texts, newline)
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return int.__repr__(int(obj))
    if isinstance(obj, (float, np.floating)):
        return _json_float(float(obj))
    return json.dumps(obj)  # None, a str subclass, or the encoder's TypeError


def dumps_json(data: dict) -> str:
    """Strict JSON text, keys sorted; a NaN or infinity raises ValueError.

    The bytes are those of ``json.dumps(data, sort_keys=True, indent=2,
    allow_nan=False) + "\n"`` of ``data`` as ``_json_text`` reads it, errors and
    their messages included, written in one pass. Each float's and each int's text
    is kept in a memo of at most _FLOAT_TEXTS numbers, emptied when full.
    """
    return _json_text(data, "\n") + "\n"


def _format_cell(value) -> str:
    kind = type(value)  # the exact built-in types first
    if kind is float:
        text = _csv_floats.get(value)
        if text is None and math.isfinite(value):
            text = _remember(_csv_floats, value, f"{value:.9g}")
        if text is not None:
            return text
    if kind is int or kind is str:
        return str(value)
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (float, np.floating)):
        if not math.isfinite(value):
            raise ValueError(f"Out of range float values are not CSV compliant: {value}")
        return f"{float(value):.9g}"
    return str(value)


def _number_columns(rows: list, width: int) -> list[list[str]] | None:
    """The cell texts of ``rows`` column by column, where every row is a list of
    ``width`` cells and each column holds only exact floats or only exact ints; else
    None. Each text comes from its kind's memo, a float miss's from ``_format_cell``."""
    if not (width and set(map(type, rows)) == {list} and set(map(len, rows)) == {width}):
        return None
    texts = []
    for column in zip(*rows):
        kinds = set(map(type, column))
        if kinds == {int}:
            texts.append(_memo_texts(_int_texts, column, _int_text))
        elif kinds == {float}:  # a miss is a zero, or a float not seen lately
            texts.append(_memo_texts(_csv_floats, column, _format_cell))
        else:
            return None
    return texts


def rows_to_csv(columns: list[str], rows: list) -> str:
    """CSV text with a header row; rows may be lists or dicts; NaN/inf raise.

    Cells are written by ``csv.writer``: floats with 9 significant digits, bools
    as true/false, anything else as ``str``. Each float's text is kept in a memo
    of at most _FLOAT_TEXTS floats, emptied when full, so the bytes and error
    messages are those of formatting every cell afresh. Rows of exact floats and
    ints are formatted column by column (``_number_columns``, the ints' texts kept
    in a memo of their own) and joined without ``csv.writer``, as a number needs
    no quoting; a NaN, an infinity or an int too long to print there leaves them
    to the per-cell loop, which names the first.
    """
    import csv  # loaded only by a command that writes CSV

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    try:
        texts = _number_columns(rows, len(columns))
    except ValueError:
        texts = None
    if texts is not None:
        buf.write("\n".join(map(",".join, zip(*texts))) + "\n")
        return buf.getvalue()
    for row in rows:
        if isinstance(row, dict):
            writer.writerow([_format_cell(row[c]) for c in columns])
        else:
            writer.writerow(map(_format_cell, row))
    return buf.getvalue()
