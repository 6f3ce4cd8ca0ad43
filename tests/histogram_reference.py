"""Test-side reference for the scan's histogram: ``_histogram`` as it was before the
one-sort form, ``np.histogram`` plus a comparison pass per count, kept verbatim, so
the sorted histogram can be checked record for record against it."""

import numpy as np

from rydex.scan import _EDGE_FLOATS, _EDGES, FRACTION_THRESHOLDS, FidelityHistogram


def _histogram(fids: np.ndarray, samples: int) -> FidelityHistogram:
    """The histogram of a scan's ``samples`` fidelities ``fids``."""
    counts, _ = np.histogram(fids, bins=_EDGES)
    underflow = int(np.count_nonzero(fids < _EDGE_FLOATS[0]))
    fraction_above = {
        thr: float(np.count_nonzero(fids > thr) / samples)
        for thr in FRACTION_THRESHOLDS
    }
    return FidelityHistogram(
        bin_edges=_EDGE_FLOATS,
        counts=(underflow, *counts.tolist()),
        fraction_above=fraction_above,
        samples=samples,
        mean=float(fids.mean()),
        minimum=float(fids.min()),
    )
