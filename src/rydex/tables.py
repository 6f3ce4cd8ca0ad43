"""The published Tables I-IV and ``run_table``, which sets the computed values beside
them with their deviations. Only the table command loads this module.
"""

from __future__ import annotations

import numpy as np

from .atoms import CHANNEL_FINE_STRUCTURE, QuantumDefectModel
from .harness import SCHEMA
from .vdw import _pair_terms, c6_pair, channel_c6

__all__ = ["run_table"]

# (n_a, n_b, C6, C6_exchange) in GHz um^6
REFERENCE_TABLE_I = (
    (59, 61, -196.0, 194.0),
    (73, 75, 4080.0, -4025.0),
    (97, 100, -59780.0, 58800.0),
    (121, 124, 1104000.0, -1124000.0),
)

# (dn_cutoff, C6 channel-2 sum for (100, 100)) in GHz um^6
REFERENCE_TABLE_II = (
    (1, 71841.8),
    (2, 71922.5),
    (3, 71928.5),
    (6, 71929.9),
    (10, 71930.0),
    (15, 71930.0),
    (20, 71930.0),
)

# rows: (atom1 p-level, atom2 p-level, energy defect MHz, R_rr GHz um^3)
# for the (97, 100) pair state; atom1 is reached from the n_a = 97 s
# state and atom2 from the n_b = 100 s state.
REFERENCE_TABLE_III = (
    ((96, 0.5), (100, 0.5), -779.0, 98.3),
    ((96, 0.5), (100, 1.5), -685.0, 96.8),
    ((96, 1.5), (100, 0.5), -672.0, 100.1),
    ((96, 1.5), (100, 1.5), -578.0, 98.5),
    ((97, 0.5), (99, 0.5), -62.0, 98.4),
    ((97, 0.5), (99, 1.5), 35.0, 100.2),
    ((97, 1.5), (99, 0.5), 42.0, 96.8),
    ((97, 1.5), (99, 1.5), 139.0, 98.6),
    ((98, 0.5), (98, 0.5), 177.0, 1.7),
    ((98, 0.5), (98, 1.5), 277.0, 1.6),
    ((98, 1.5), (98, 0.5), 277.0, 1.7),
    ((98, 1.5), (98, 1.5), 378.0, 1.7),
)

# same layout for the (73, 75) pair state
REFERENCE_TABLE_IV = (
    ((73, 0.5), (74, 1.5), -51.0, 30.5),
    ((73, 1.5), (74, 0.5), -41.0, 29.5),
    ((73, 1.5), (74, 1.5), 198.0, 30.1),
    ((74, 0.5), (73, 0.5), -291.0, 0.5),
    ((74, 0.5), (73, 1.5), -41.0, 0.5),
    ((74, 1.5), (73, 0.5), -51.0, 0.5),
    ((74, 1.5), (73, 1.5), 198.0, 0.5),
)

TABLE_PAIRS = {"III": (97, 100), "IV": (73, 75)}


def _rel_dev(computed: float, reference: float) -> float:
    return (computed - reference) / abs(reference)


def _table_i(model: QuantumDefectModel) -> list[dict]:
    rows = []
    for n_a, n_b, ref_c6, ref_ex in REFERENCE_TABLE_I:
        pair = c6_pair(model, n_a, n_b)
        ratio = abs(pair.c6_exchange / pair.c6)
        ref_ratio = abs(ref_ex / ref_c6)
        rows.append(
            {
                "n_a": n_a,
                "n_b": n_b,
                "c6_computed": pair.c6,
                "c6_reference": ref_c6,
                "c6_rel_dev": _rel_dev(pair.c6, ref_c6),
                "c6_exchange_computed": pair.c6_exchange,
                "c6_exchange_reference": ref_ex,
                "c6_exchange_rel_dev": _rel_dev(pair.c6_exchange, ref_ex),
                "ratio_computed": ratio,
                "ratio_reference": ref_ratio,
                "ratio_difference": ratio - ref_ratio,
            }
        )
    return rows


def _table_ii(model: QuantumDefectModel) -> list[dict]:
    rows = []
    for dn, ref in REFERENCE_TABLE_II:
        value = channel_c6(model, 100, 100, 2, dn_cutoff=dn)
        rows.append(
            {
                "dn_cutoff": dn,
                "c6_channel2_computed": value,
                "c6_channel2_reference": ref,
                "rel_dev": _rel_dev(value, ref),
            }
        )
    return rows


def _format_p_level(n: int, j: float) -> str:
    return f"{n}p{'1/2' if j == 0.5 else '3/2'}"


def _table_channels(model: QuantumDefectModel, table_id: str) -> list[dict]:
    n_a, n_b = TABLE_PAIRS[table_id]
    reference = REFERENCE_TABLE_III if table_id == "III" else REFERENCE_TABLE_IV
    window = _pair_terms(model, n_a, n_b, 2)  # every tabulated row lies within dn 2
    channel_row = {js: c for c, js in enumerate(CHANNEL_FINE_STRUCTURE.values())}
    rows = []
    for (n1, j1), (n2, j2), ref_defect_mhz, ref_rr in reference:
        c, i = channel_row[j1, j2], int(np.flatnonzero((window.ns == n1) & (window.nt == n2))[0])
        defect_mhz = 1e3 * float(window.defect[c, i])
        rr = abs(float(window.rr[c, i]))
        rows.append(
            {
                "atom1": _format_p_level(n1, j1),
                "atom2": _format_p_level(n2, j2),
                "defect_mhz_computed": defect_mhz,
                "defect_mhz_reference": ref_defect_mhz,
                "defect_mhz_deviation": defect_mhz - ref_defect_mhz,
                "rr_ghz_um3_computed": rr,
                "rr_ghz_um3_reference": ref_rr,
                "rr_rel_dev": _rel_dev(rr, ref_rr),
            }
        )
    return rows


def run_table(table_id: str, model: QuantumDefectModel) -> dict:
    """Computed-vs-reference rows for one of the bundled tables."""
    if not isinstance(table_id, str):
        raise ValueError(f"table_id must be a str, got {table_id!r}")
    normalized = table_id.strip().upper()
    if normalized == "I":
        rows = _table_i(model)
    elif normalized == "II":
        rows = _table_ii(model)
    elif normalized in TABLE_PAIRS:
        rows = _table_channels(model, normalized)
    else:
        raise ValueError(f"unknown table id {table_id!r}; expected I, II, III, or IV")
    return {"schema": SCHEMA, "table": normalized, "columns": list(rows[0]), "rows": rows}
