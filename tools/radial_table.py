"""Write, or check, the bundled table of Rb-87 s -> p radial elements.

    python3 tools/radial_table.py          # rewrite src/rydex/data/radial_sp.f64
    python3 tools/radial_table.py --check  # exit 1 unless the file matches

The table holds ``radial._live_element(nu_s, 0, nu_p, 1)`` for every grid
point of the bundled model: n_s in [N_S_MIN, N_S_MAX], both p_j series,
n_p within DN_MAX of n_s and above the series' lowest bound level. Each
entry is a little-endian float64 triple (nu_s, nu_p, element), sorted by
(nu_s, nu_p). Since every value comes from the live element, a lookup
returns the bits a live call would; since the keys are stored, a table
left stale by an edit of ``rb87_defects.txt`` misses instead of answering.
Regenerating takes about 20 s. Stdlib and rydex only.
"""

from __future__ import annotations

import argparse
import sys
from array import array
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rydex.atoms import QuantumDefectModel, _rydberg_ritz  # noqa: E402
from rydex.radial import _live_element  # noqa: E402
from rydex.vdw import _p_levels  # noqa: E402

TABLE = ROOT / "src" / "rydex" / "data" / "radial_sp.f64"
# |n_p - n_s| <= DN_MAX covers dn_cutoff <= 20 with |n_a - n_b| <= 4
N_S_MIN, N_S_MAX, DN_MAX = 20, 200, 24


def grid(model: QuantumDefectModel) -> list[tuple[float, float]]:
    """Every (nu_s, nu_p) key of the domain, in grid order."""
    keys = []
    _, nus_s, _ = _rydberg_ritz(model, 0, 0.5, range(N_S_MIN, N_S_MAX + 1))
    for n_s, nu_s in zip(range(N_S_MIN, N_S_MAX + 1), nus_s):
        for j in (0.5, 1.5):
            low = max(n_s - DN_MAX, _p_levels(model)[j][0])
            _, nus_p, _ = _rydberg_ritz(model, 1, j, range(low, n_s + DN_MAX + 1))
            keys.extend((nu_s, nu_p) for nu_p in nus_p)
    return keys


def table_bytes(model: QuantumDefectModel) -> bytes:
    keys = sorted(grid(model))
    if len(set(keys)) != len(keys):
        raise ValueError("two grid points share a (nu_s, nu_p) key")
    flat = array("d")
    for nu_s, nu_p in keys:
        flat.extend((nu_s, nu_p, _live_element(nu_s, 0, nu_p, 1)))
    if sys.byteorder == "big":
        flat.byteswap()
    return flat.tobytes()


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--check", action="store_true",
                   help="regenerate in memory; exit 1 unless the committed file matches bit for bit")
    args = p.parse_args(argv)
    data = table_bytes(QuantumDefectModel.default())
    if args.check:
        same = TABLE.is_file() and TABLE.read_bytes() == data
        print(f"{TABLE.name}: {len(data) // 24} entries, "
              f"{'match' if same else 'DIFFER from the regenerated table'}")
        return 0 if same else 1
    TABLE.write_bytes(data)
    print(f"wrote {TABLE.name}: {len(data) // 24} entries, {len(data)} bytes")
    return 0


if __name__ == "__main__":
    sys.exit(main())
