"""Rydberg level structure from measured quantum defects.

Level energies follow the modified Rydberg-Ritz parametrization

    delta(n) = delta0 + delta2 / (n - delta0)**2,
    nu(n)    = n - delta(n),
    E(n)     = -Ry / nu(n)**2,

with the species-specific Rydberg constant and defect coefficients read
from a small key-value data file (a file for rubidium-87 is bundled).
nu is the effective principal quantum number and all energies are in
GHz. The three are computed in one place, ``_rydberg_ritz``, per (l, j)
series over a range of n.

The module also carries the angular-momentum utility needed elsewhere:
Clebsch-Gordan coefficients.

Frequency convention: every frequency in this package is an ordinary
frequency (cycles per unit time, nu = omega / 2 pi), in GHz for atomic
structure and kHz for dynamics. Factors of 2 pi appear only inside time
propagation, in ``dynamics``.
"""

from __future__ import annotations

import math
import operator
from collections.abc import Mapping
from dataclasses import dataclass, field
from importlib import resources
from pathlib import Path
from types import MappingProxyType

__all__ = [
    "DefectDataError",
    "DefectSeries",
    "QuantumDefectModel",
    "CHANNEL_FINE_STRUCTURE",
    "quantum_defect",
    "clebsch_gordan",
]

_L_LETTERS = "spdfghik"


def _require_finite(
    name: str, value: float, lower: float = -math.inf, inclusive: bool = True
) -> None:
    """Reject a bool, a non-finite ``value``, or one below ``lower`` (or at it
    unless ``inclusive``), with a one-line error that names the parameter."""
    if isinstance(value, bool):
        raise ValueError(f"{name} must be a number, got {value!r}")
    in_range = value >= lower if inclusive else value > lower
    if not (math.isfinite(value) and in_range):
        bound = "" if lower == -math.inf else f" and {'>=' if inclusive else '>'} {lower:g}"
        raise ValueError(f"{name} must be finite{bound}, got {value}")


def _require_int(name: str, value, lo: float = -math.inf, hi: float = math.inf) -> int:
    """``value`` as an int in [lo, hi]; a bool or a non-integer is refused by ``name``
    first, then an int out of range, in a message that states the bounds given."""
    try:
        v = None if isinstance(value, bool) else operator.index(value)
    except TypeError:
        v = None
    if v is None:
        raise ValueError(f"{name} must be an integer, got {value!r}")
    if not lo <= v <= hi:
        bound = (f">= {lo}" if hi == math.inf else f"at most {hi}" if lo == -math.inf
                 else f"in [{lo}, {hi}]")
        raise ValueError(f"{name} must be {bound}, got {v}")
    return v


class DefectDataError(Exception):
    """Raised for malformed defect data files or missing series."""


@dataclass(frozen=True)
class DefectSeries:
    """Rydberg-Ritz coefficients for one (l, j) series: l an int >= 0, j = l +- 1/2,
    both defects finite; a bad value is refused by its name."""

    l: int
    j: float
    delta0: float
    delta2: float

    def __post_init__(self) -> None:
        _require_int("l", self.l, 0)
        for name in ("j", "delta0", "delta2"):
            _require_finite(name, getattr(self, name))
        if abs(self.j - self.l) != 0.5:
            raise ValueError(f"j must be l +- 1/2 for l={self.l}, got {self.j}")


@dataclass(frozen=True)
class QuantumDefectModel:
    """Quantum defect data for one atomic species, as an immutable value: equal
    content means equal models with equal hashes, and an edit is a
    ``dataclasses.replace`` copy.

    Attributes
    ----------
    species : str
        Species tag, e.g. ``"Rb-87"``.
    rydberg_constant_ghz : float
        Reduced-mass-corrected Rydberg constant in GHz, finite and > 0.
    series : Mapping[tuple[int, float], DefectSeries]
        Defect coefficients keyed by their (l, j), read-only: a copy of the mapping given.
    """

    species: str
    rydberg_constant_ghz: float
    series: Mapping[tuple[int, float], DefectSeries] = field(default_factory=dict)

    def __post_init__(self) -> None:
        _require_finite("rydberg_constant_ghz", self.rydberg_constant_ghz, 0.0, inclusive=False)
        object.__setattr__(self, "series", MappingProxyType(dict(self.series)))
        for key, record in self.series.items():
            if not (isinstance(record, DefectSeries) and key == (record.l, record.j)):
                raise ValueError(f"series[{key!r}] must be a DefectSeries of that (l, j), "
                                 f"got {record!r}")
        # hashed once, not a field; a frozenset, as == of two mappings ignores their order
        content = (self.species, self.rydberg_constant_ghz, frozenset(self.series.items()))
        object.__setattr__(self, "_hash", hash(content))

    def __hash__(self) -> int:
        return self._hash

    def series_for(self, l: int, j: float) -> DefectSeries:
        try:
            return self.series[(int(l), float(j))]
        except KeyError:
            raise DefectDataError(
                f"no quantum defect data for series l={l}, j={j} "
                f"of {self.species}"
            ) from None

    @classmethod
    def from_file(cls, path: str | Path) -> "QuantumDefectModel":
        """Parse a flat key-value defect data file.

        The format is line oriented: ``#`` starts a comment, blank lines
        are skipped, and every other line is whitespace-separated tokens
        ``key value...``. Recognized keys are ``format_version``,
        ``species``, ``rydberg_constant_ghz`` and ``series`` (with fields
        l, j, delta0, delta2). Any malformed line is a fatal error that
        reports the offending line number.
        """
        path = Path(path)
        text = path.read_text(encoding="utf-8")
        return cls._parse(text, source=str(path))

    @classmethod
    def _parse(cls, text: str, source: str = "<string>") -> "QuantumDefectModel":
        species = None
        rydberg = None
        series: dict[tuple[int, float], DefectSeries] = {}

        def fail(lineno: int, msg: str) -> DefectDataError:
            return DefectDataError(f"{source}, line {lineno}: {msg}")

        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            tokens = line.split()
            key = tokens[0]
            if key == "format_version":
                if len(tokens) != 2 or tokens[1] != "1":
                    raise fail(lineno, f"unsupported format_version {tokens[1:]}")
            elif key == "species":
                if len(tokens) != 2:
                    raise fail(lineno, "species takes exactly one value")
                species = tokens[1]
            elif key == "rydberg_constant_ghz":
                if len(tokens) != 2:
                    raise fail(lineno, "rydberg_constant_ghz takes exactly one value")
                try:
                    rydberg = float(tokens[1])
                except ValueError:
                    raise fail(lineno, f"bad float {tokens[1]!r}") from None
                if not 0 < rydberg < math.inf:
                    raise fail(lineno, "rydberg_constant_ghz must be positive and finite")
            elif key == "series":
                if len(tokens) != 5:
                    raise fail(lineno, "series takes l, j, delta0, delta2")
                l = _parse_l(tokens[1], lineno, fail)
                try:
                    j, delta0, delta2 = (float(t) for t in tokens[2:5])
                except ValueError:
                    raise fail(lineno, f"bad float in {tokens[2:5]}") from None
                try:
                    record = DefectSeries(l=l, j=j, delta0=delta0, delta2=delta2)
                except ValueError as exc:
                    raise fail(lineno, str(exc)) from None
                if (l, j) in series:
                    raise fail(lineno, f"duplicate series l={l}, j={j}")
                series[(l, j)] = record
            else:
                raise fail(lineno, f"unknown key {key!r}")

        if species is None:
            raise DefectDataError(f"{source}: missing species")
        if rydberg is None:
            raise DefectDataError(f"{source}: missing rydberg_constant_ghz")
        if not series:
            raise DefectDataError(f"{source}: no series records")
        return cls(species=species, rydberg_constant_ghz=rydberg, series=series)

    @classmethod
    def default(cls) -> "QuantumDefectModel":
        """The bundled rubidium-87 model."""
        ref = resources.files("rydex.data").joinpath("rb87_defects.txt")
        return cls._parse(ref.read_text(encoding="utf-8"), source="rb87_defects.txt")


def _parse_l(token: str, lineno: int, fail) -> int:
    if token in _L_LETTERS:
        return _L_LETTERS.index(token)
    try:
        return int(token)
    except ValueError:
        raise fail(lineno, f"bad orbital quantum number {token!r}") from None


def _rydberg_ritz(
    model: QuantumDefectModel, l: int, j: float, ns
) -> tuple[list[float], list[float], list[float]]:
    """Defects delta(n), effective numbers nu and energies E (GHz) of the (l, j)
    series over ``ns``, as three lists: the package's one typing of the
    Rydberg-Ritz formula. E is nan where nu <= 0 (no bound level); an n not
    above delta0 is refused as ``quantum_defect`` documents."""
    s = model.series_for(l, j)
    ry = model.rydberg_constant_ghz
    deltas, nus, energies = [], [], []
    for n in ns:
        if n <= s.delta0:
            raise ValueError(f"n={n} must exceed delta0={s.delta0} for series l={l}, j={j}")
        delta = s.delta0 + s.delta2 / (n - s.delta0) ** 2
        nu = n - delta
        deltas.append(delta)
        nus.append(nu)
        energies.append(-ry / nu**2 if nu > 0 else math.nan)
    return deltas, nus, energies


def quantum_defect(model: QuantumDefectModel, l: int, j: float, n: int) -> float:
    """Quantum defect delta(n) of the (l, j) series at principal number n.

    Raises
    ------
    DefectDataError
        If the model has no data for the requested series.
    ValueError
        If j is not finite, l or n is not an integer, l is negative, or n
        does not exceed delta0 (no bound Rydberg state).
    """
    _require_finite("j", j)
    l = _require_int("l", l, 0)
    (delta,), _, _ = _rydberg_ritz(model, l, j, (_require_int("n", n),))
    return delta


# The four p-state fine-structure channels reachable from a two-atom
# (n_A s, n_B s) pair by a dipole-dipole flip, keyed by channel index:
# atom A goes to j_a, atom B goes to j_b.
CHANNEL_FINE_STRUCTURE: dict[int, tuple[float, float]] = {
    1: (1.5, 1.5),
    2: (1.5, 0.5),
    3: (0.5, 1.5),
    4: (0.5, 0.5),
}


def _as_twice(x: float, name: str) -> int:
    _require_finite(name, x)
    t = 2.0 * x
    ti = round(t)
    if abs(t - ti) > 1e-9:
        raise ValueError(f"{name}={x} is not integer or half-integer")
    return int(ti)


def clebsch_gordan(
    j1: float, m1: float, j2: float, m2: float, j: float, m: float
) -> float:
    """Clebsch-Gordan coefficient <j1 m1; j2 m2 | j m>.

    Evaluated from Racah's closed-form factorial sum, exact up to float
    rounding. Arguments may be integers or half-integers. Selection-rule
    violations (m != m1 + m2, triangle rule, mismatched parity of the
    couplings) give 0.0; structurally invalid angular momenta (negative
    j, |m| > j, non-half-integer, non-finite or bool values) raise ValueError.
    """
    tj1, tm1 = _as_twice(j1, "j1"), _as_twice(m1, "m1")
    tj2, tm2 = _as_twice(j2, "j2"), _as_twice(m2, "m2")
    tj, tm = _as_twice(j, "j"), _as_twice(m, "m")
    for tjx, tmx, nj, nm in ((tj1, tm1, "j1", "m1"), (tj2, tm2, "j2", "m2"), (tj, tm, "j", "m")):
        if tjx < 0:
            raise ValueError(f"{nj} must be non-negative")
        if abs(tmx) > tjx:
            raise ValueError(f"|{nm}| > {nj}, got {nm}={tmx / 2}, {nj}={tjx / 2}")
        if (tjx - tmx) % 2 != 0:
            raise ValueError(f"m and j differ by a non-integer for {nj}")

    if tm1 + tm2 != tm:
        return 0.0
    if tj < abs(tj1 - tj2) or tj > tj1 + tj2:
        return 0.0

    def f(twice: int) -> int:
        # factorial of an integer given as twice its value: with each m and j of one
        # parity and m1 + m2 = m, every argument below is even and non-negative
        return math.factorial(twice // 2)

    pref = (tj + 1) * f(tj1 + tj2 - tj) * f(tj1 - tj2 + tj) * f(-tj1 + tj2 + tj)
    pref = pref / f(tj1 + tj2 + tj + 2)
    pref *= (
        f(tj1 + tm1) * f(tj1 - tm1) * f(tj2 + tm2) * f(tj2 - tm2) * f(tj + tm) * f(tj - tm)
    )

    total = 0.0
    # summation index k runs over all values keeping factorial args >= 0
    k_min = max(0, (tj2 - tm1 - tj) // 2, (tj1 + tm2 - tj) // 2)
    k_max = min((tj1 + tj2 - tj) // 2, (tj1 - tm1) // 2, (tj2 + tm2) // 2)
    for k in range(k_min, k_max + 1):
        denom = (
            math.factorial(k)
            * f(tj1 + tj2 - tj - 2 * k)
            * f(tj1 - tm1 - 2 * k)
            * f(tj2 + tm2 - 2 * k)
            * f(tj - tj2 + tm1 + 2 * k)
            * f(tj - tj1 - tm2 + 2 * k)
        )
        total += (-1.0) ** k / denom
    return math.sqrt(pref) * total
