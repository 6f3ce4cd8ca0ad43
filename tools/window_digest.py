"""Print one SHA-256 over every output the channel windows feed.

    python3 tools/window_digest.py

The windows are every (n, n + d) with d = 1..3 and n = 40..130, in both
atom orders, at dn 10 and dn 3: 1,092 in all. Per window the digest takes
each ``interference_decomposition`` row (each field's type and float hex),
``c6_pair`` (``c6``, ``c6_exchange`` and ``channel_sums`` as hex),
``channel_c6`` for k = 1..4, ``critical_radius`` and ``v_plus_minus`` of that
``c6_pair`` at twice the radius; at dn 10 also the bytes of
``interaction_matrix`` at that spacing. It also takes the near-resonant log
lines of all those calls, in order, which each summing call repeats. Only
public names are used, so the same file checks a refactor against the commit
before it: equal digests mean bit-equal outputs. The log lines and the
critical-radius warning are not printed. Takes about 15 s on a 2-core VM.
Stdlib and rydex only.
"""

from __future__ import annotations

import dataclasses
import hashlib
import logging
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

from rydex.atoms import QuantumDefectModel  # noqa: E402
from rydex.vdw import (  # noqa: E402
    c6_pair,
    channel_c6,
    critical_radius,
    interaction_matrix,
    interference_decomposition,
    v_plus_minus,
)


def windows() -> list[tuple[int, int, int]]:
    """(n_a, n_b, dn_cutoff) of every digested window, in digest order."""
    pairs = [(n, n + d) for n in range(40, 131) for d in (1, 2, 3)]
    return [(a, b, dn) for p in pairs for a, b in (p, p[::-1]) for dn in (10, 3)]


def encode(value) -> str:
    """``value`` with every float as its hex, every other scalar as its repr."""
    if isinstance(value, float):
        return value.hex()
    if isinstance(value, (tuple, list)):
        return "(" + ",".join(encode(v) for v in value) + ")"
    return repr(value)


class Lines(logging.Handler):
    """Keeps each log record's message."""

    def __init__(self) -> None:
        super().__init__()
        self.lines: list[str] = []

    def emit(self, record: logging.LogRecord) -> None:
        self.lines.append(record.getMessage())


def digest(model: QuantumDefectModel, log: Lines) -> str:
    h = hashlib.sha256()
    for n_a, n_b, dn in windows():
        h.update(f"[{n_a},{n_b},{dn}]".encode())
        for row in interference_decomposition(model, n_a, n_b, dn):
            h.update(encode([(type(x).__name__, x) for x in row]).encode())
        pair = c6_pair(model, n_a, n_b, dn)
        h.update(encode((pair.c6, pair.c6_exchange, pair.channel_sums)).encode())
        h.update(encode([channel_c6(model, n_a, n_b, k, dn) for k in (1, 2, 3, 4)]).encode())
        radius = critical_radius(model, n_a, n_b, dn)
        h.update(encode(dataclasses.astuple(radius)).encode())
        spacing = 2.0 * radius.radius_um
        h.update(encode(dataclasses.astuple(v_plus_minus(pair, spacing))).encode())
        if dn == 10:
            im = interaction_matrix(model, n_a, n_b, spacing)
            h.update(im.v1_khz.tobytes() + im.v2_khz.tobytes())
        h.update(encode(log.lines).encode())
        log.lines.clear()
    return h.hexdigest()


def main() -> None:
    log = Lines()
    logger = logging.getLogger("rydex.vdw")
    logger.addHandler(log)
    logger.propagate = False  # kept, not printed
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        print(digest(QuantumDefectModel.default(), log))


if __name__ == "__main__":
    main()
