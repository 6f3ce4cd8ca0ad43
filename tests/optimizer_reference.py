"""Test-side reference for the optimizer's search: ``_nelder_mead`` and
``_lockstep_nelder_mead`` as they were before the search state ran in plain Python
floats, each simplex a numpy array and each round one concatenated, masked batch,
kept verbatim (name and docstring included) so the plain-float search can be checked
bit for bit against them."""

import numpy as np

from rydex.optimizer import _sector_fidelities


def _nelder_mead(x0: np.ndarray, xatol: float, fatol: float):
    """scipy.optimize.minimize's non-adaptive Nelder-Mead (maxiter 400) step for step,
    as a generator: it yields each (k, n) array of points it needs scored, is sent
    their k scores, and returns whether it stopped on the xatol/fatol test."""
    rho, chi, psi, sigma = 1, 2, 0.5, 0.5
    sim = np.tile(x0, (len(x0) + 1, 1))
    for k, x in enumerate(x0):
        sim[k + 1, k] = 1.05 * x if x != 0 else 0.00025
    fsim = np.array((yield sim), dtype=float)
    order = fsim.argsort()  # scipy sorts here and after every iteration; argsort
    sim, fsim = sim[order], fsim[order]  # need not be stable, so sort as often
    for _ in range(399):  # iterations 1 .. maxiter - 1
        order = fsim.argsort()
        sim, fsim = sim[order], fsim[order]
        if np.abs(sim[1:] - sim[0]).max() <= xatol and np.abs(fsim[0] - fsim[1:]).max() <= fatol:
            return True
        xbar = np.add.reduce(sim[:-1], 0) / len(x0)
        xr = (1 + rho) * xbar - rho * sim[-1]
        (fxr,) = yield xr[None]
        if fxr < fsim[0]:  # expand
            xe = (1 + rho * chi) * xbar - rho * chi * sim[-1]
            (fxe,) = yield xe[None]
            sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
        elif fxr < fsim[-2]:  # reflect
            sim[-1], fsim[-1] = xr, fxr
        else:  # contract outside or inside, else shrink towards the best vertex
            outside = fxr < fsim[-1]
            xc = ((1 + psi * rho) * xbar - psi * rho * sim[-1] if outside
                  else (1 - psi) * xbar + psi * sim[-1])
            (fxc,) = yield xc[None]
            if (fxc <= fxr) if outside else (fxc < fsim[-1]):
                sim[-1], fsim[-1] = xc, fxc
            else:
                sim[1:] = sim[0] + sigma * (sim[1:] - sim[0])
                fsim[1:] = yield sim[1:]
    return False


def _lockstep_nelder_mead(starts: list[np.ndarray], lo: np.ndarray, hi: np.ndarray, tol: float,
                          v_plus_khz: float, v_minus_khz: float) -> tuple[np.ndarray, bool]:
    """A ``_nelder_mead`` on 1 - fidelity from each start, in lockstep: each round scores
    all pending points in one ``_sector_fidelities`` batch, 2 outside [lo, hi] unevaluated.
    Returns the first best point (start by start, then in evaluation order) and whether
    any search stopped on its tolerance test."""
    searches = [_nelder_mead(x0, tol, 1e-9) for x0 in starts]
    pending = {i: next(search) for i, search in enumerate(searches)}
    best, converged = [(-1.0, x0) for x0 in starts], False  # (fidelity, point) per search
    while pending:
        points = np.concatenate(list(pending.values()))
        inside = np.all((points >= lo) & (points <= hi), axis=1)
        fids = np.full(len(points), -np.inf)
        fids[inside] = _sector_fidelities(points[inside], v_plus_khz, v_minus_khz)
        scores, begin = np.where(inside, 1.0 - fids, 2.0), 0
        for i, batch in list(pending.items()):
            end = begin + len(batch)
            k = begin + int(np.argmax(fids[begin:end]))  # the first best of the batch
            best[i] = max(best[i], (fids[k], points[k]), key=lambda entry: entry[0])
            try:
                pending[i] = searches[i].send(scores[begin:end])
            except StopIteration as stop:
                converged = converged or stop.value
                del pending[i]
            begin = end
    return max(best, key=lambda entry: entry[0])[1], converged
