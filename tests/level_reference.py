"""Test-side per-level reference: one Rydberg level, its energy and its radial orbital.

Each level is computed on its own from ``model.series_for(l, j)``'s
coefficients, not through ``atoms._rydberg_ritz``, so that the tests
comparing the channel window with it bit for bit compare two independent
typings of the Rydberg-Ritz formula.
"""

from dataclasses import dataclass
from typing import NamedTuple


@dataclass(frozen=True)
class RydbergLevel:
    """A single |n, l, j> Rydberg level."""

    n: int
    l: int
    j: float

    def __post_init__(self) -> None:
        if self.l < 0 or self.l >= self.n:
            raise ValueError(f"need 0 <= l < n, got n={self.n}, l={self.l}")
        if abs(self.j - self.l) != 0.5 or self.j < 0:
            raise ValueError(f"j={self.j} is not l +- 1/2 for l={self.l}")


class RadialOrbital(NamedTuple):
    """A radial wavefunction (n_eff, l); ``radial_integral(*bra, *ket)`` takes two."""

    n_eff: float
    l: int


def effective_orbital(model, level: RydbergLevel) -> RadialOrbital:
    """Reduce a |n, l, j> level to its radial orbital (n - delta(n), l)."""
    s = model.series_for(level.l, level.j)
    return RadialOrbital(level.n - (s.delta0 + s.delta2 / (level.n - s.delta0) ** 2), level.l)


def level_energy(model, level: RydbergLevel) -> float:
    """Binding energy of a Rydberg level in GHz (negative below threshold)."""
    return -model.rydberg_constant_ghz / effective_orbital(model, level).n_eff ** 2
