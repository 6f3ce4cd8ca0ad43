"""The public surface: every library function has a caller outside the tests, every
constant and class a reader there, every parameter with a default is set by one, the
package's names all resolve, and each float parameter refuses a bad float by name."""

import ast
import importlib
import inspect
import math
import re
import warnings
from pathlib import Path

import mpmath
import pytest

import rydex

ROOT = Path(__file__).resolve().parents[1]
MODULES = ("atoms", "radial", "vdw", "dynamics", "protocols", "harness")
SOURCES = [p for p in (ROOT / "src" / "rydex").glob("*.py") if p.name != "__init__.py"]
SOURCES += list((ROOT / "perfbench").glob("*.py"))
TREES = [ast.parse(path.read_text(encoding="utf-8")) for path in SOURCES]
# public functions that only tests call, each with the reason it stays
ALLOWED = {"chain_ideal_state": "acceptance criterion 8"}
# public constants and classes that no source reads, each with the reason it stays
ALLOWED_NAMES: dict[str, str] = {}
# parameters with a default that only tests set, each with the reason it stays
ALLOWED_PARAMETERS = {
    "optimize_pairwise.restarts": "the determinism test freezes its optimum at 3 restarts",
    "pairwise_entangle.phases": "criterion 10's dressed sectors at protocol level, pinned "
                                "bit-exact",
}
_POSITIONAL = (inspect.Parameter.POSITIONAL_ONLY, inspect.Parameter.POSITIONAL_OR_KEYWORD)


def _public_functions():
    for module in (importlib.import_module(f"rydex.{m}") for m in MODULES):
        for name in module.__all__:
            if inspect.isfunction(getattr(module, name)):
                yield name, getattr(module, name)


def _loaded_names() -> set[str]:
    """Every name read as a bare name or an attribute in the sources."""
    names = set()
    for node in (node for tree in TREES for node in ast.walk(tree)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def _passed(call: ast.Call, params: list[inspect.Parameter]) -> set[str]:
    """Names of ``params`` that ``call`` passes; a ``*`` or ``**`` may pass any it can reach."""
    if any(k.arg is None for k in call.keywords):
        return {p.name for p in params}
    positional = [p.name for p in params if p.kind in _POSITIONAL]
    passed = {k.arg for k in call.keywords}
    for i, arg in enumerate(call.args):
        passed.update(positional[i:] if isinstance(arg, ast.Starred) else positional[i : i + 1])
    return passed


def test_every_public_function_has_a_caller_outside_the_tests():
    used = _loaded_names()
    uncalled = {name for name, _ in _public_functions() if name not in used}
    assert sorted(uncalled - ALLOWED.keys()) == []
    assert ALLOWED.keys() <= uncalled, "an allowed name has gained a caller: drop it"


def test_every_public_constant_and_class_is_read_outside_the_tests():
    names = {name for m in MODULES for name in importlib.import_module(f"rydex.{m}").__all__}
    unread = names - {name for name, _ in _public_functions()} - _loaded_names()
    assert sorted(unread - ALLOWED_NAMES.keys()) == []
    assert ALLOWED_NAMES.keys() <= unread, "an allowed name has gained a reader: drop it"


def test_every_default_parameter_is_set_outside_the_tests():
    calls: dict[str, list[ast.Call]] = {}
    for node in (node for tree in TREES for node in ast.walk(tree)):
        if isinstance(node, ast.Call):
            name = getattr(node.func, "id", getattr(node.func, "attr", None))
            calls.setdefault(name, []).append(node)
    unset = set()
    for name, func in _public_functions():
        params = list(inspect.signature(func).parameters.values())
        passed = set().union(*(_passed(call, params) for call in calls.get(name, [])))
        unset |= {f"{name}.{p.name}" for p in params
                  if p.default is not p.empty and p.name not in passed}
    assert sorted(unset - ALLOWED_PARAMETERS.keys()) == []
    assert ALLOWED_PARAMETERS.keys() <= unset, "an allowed parameter has gained a setter: drop it"


def test_package_names_load_lazily_and_completely():
    """Every package name is its layer's own object, ``dir`` lists it, and an
    unknown name fails by name."""
    layers = [importlib.import_module(f"rydex.{m}") for m in MODULES]
    for name in rydex.__all__:
        homes = [layer for layer in layers if name in layer.__all__]
        assert homes, f"{name} is in no layer's __all__"
        assert all(getattr(rydex, name) is getattr(layer, name) for layer in homes)
    assert set(rydex.__all__) <= set(dir(rydex))
    with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
        rydex.frobnicate  # noqa: B018

    # names read through a layer that loads their home module on first use
    harness, radial = layers[MODULES.index("harness")], layers[MODULES.index("radial")]
    assert harness.pair_couplings is rydex.protocols.pair_couplings
    assert harness._batched_pulse3_fidelities is rydex.dynamics._batched_pulse3_fidelities
    assert radial.mpmath is mpmath
    for layer in (harness, radial):
        with pytest.raises(AttributeError, match="has no attribute 'frobnicate'"):
            layer.frobnicate  # noqa: B018


# one valid call, by keyword, of each public function and checked record with a float parameter
_MODEL = rydex.QuantumDefectModel.default()
_H = rydex.build_blocked2(100.0, 0.0, 500.0)
_STATE = rydex.QuantumState.from_label(_H.basis, "ground")
_SPEC = rydex.ChainSpec(atom_count=4, spacing_um=15.0, pair=(73, 75))
VALID_CALLS = {
    "clebsch_gordan": dict(j1=1, m1=0, j2=1, m2=0, j=2, m=0),
    "DefectSeries": dict(l=1, j=0.5, delta0=2.65, delta2=0.29),
    "QuantumDefectModel": dict(species="Rb-87", rydberg_constant_ghz=3289.8, series=_MODEL.series),
    "quantum_defect": dict(model=_MODEL, l=1, j=0.5, n=60),
    "radial_integral": dict(n_eff1=59.7, l1=0, n_eff2=60.3, l2=1),
    "PulseSpec": dict(omega_dU_A=10.0, duration_us=1.0),
    "build_blocked2": dict(omega=100.0, phi=0.0, v_blockade=500.0),
    "build_full8": dict(pulse=rydex.PulseSpec(), v_s=358.0, v_c=-353.0),
    "build_swap_2pi": dict(omega=100.0, phi=0.0, v_plus=5.0, v_minus=711.0),
    "propagate": dict(state=_STATE, h=_H, t_us=1.0),
    "propagate_sampled": dict(state=_STATE, h=_H, t_us=1.0, n_samples=3),
    "pulse2_analytics": dict(omega_uD_B=59.0, v_plus=5.0, v_minus=711.0),
    "tau2_approximate": dict(omega_uD_B=59.0, v_plus=5.0),
    "ChainSpec": dict(atom_count=4, spacing_um=15.0, pair=(73, 75)),
    "chain_fidelity_estimate": dict(spec=_SPEC, f1=0.99, f_swap=0.98, tau_us=6.0),
    "chain_protocol": dict(model=_MODEL, spec=_SPEC, f1=0.99, f_swap=0.98, tau_us=6.0),
    "optimize_pairwise": dict(v_plus_khz=5.0, v_minus_khz=711.0),
    "pairwise_entangle": dict(omega_pulse2_khz=59.0, omega_pulse3_khz=59.0, v_plus_khz=5.0,
                              v_minus_khz=711.0, tau2_us=12.0, tau3_us=8.5),
    "swap_gate": dict(omega_khz=89.0, v_plus_khz=5.0, v_minus_khz=711.0, v_blockade_khz=535.0,
                      t_2pi_us=11.12),
    "RobustnessConfig": dict(epsilon=0.1, samples=10, seed=1, omega_khz=58.8, v_plus_khz=5.0,
                             v_minus_khz=711.0),
}
_RESULT = "a result record the library fills, not an input"
# float parameters that a bad float may reach without its name, each with the reason
ALLOWED_UNNAMED = {
    **{name: _RESULT for name in (
        "C6Pair", "ChannelContribution", "CriticalRadius", "InteractionMatrix", "VPlusMinus",
        "Pulse2Analytics", "ChainFidelityEstimate", "ChainResult", "PairCouplings",
        "PairwiseOptimum", "ProtocolResult", "SpectatorBlockade", "SwapGateResult",
        "FidelityHistogram")},
    **{f"{name}.spacing_um": "its messages say 'spacing', and the CLI tests pin them"
       for name in ("interaction_matrix", "v_plus_minus", "pair_couplings")},
}


def _float_parameters():
    """(name, callable, parameter) of each float parameter in ``rydex.__all__``."""
    for name in rydex.__all__:
        obj = getattr(rydex, name)
        if not callable(obj) or isinstance(obj, type) and issubclass(obj, BaseException):
            continue
        for p in inspect.signature(obj).parameters.values():
            if re.fullmatch(r"(ForwardRef\(')?float('\))?( \| None)?", str(p.annotation)):
                yield name, obj, p.name


def test_every_float_parameter_refuses_a_bad_float_by_name():
    """nan, +-inf and True for each float parameter raise a ValueError naming it;
    the library twin of the CLI fuzz in test_harness."""
    unnamed, seen, checked = [], set(), set()
    for name, func, param in _float_parameters():
        seen |= {name, f"{name}.{param}"}
        if name in ALLOWED_UNNAMED or f"{name}.{param}" in ALLOWED_UNNAMED:
            continue
        checked.add(name)
        for bad in (math.nan, math.inf, -math.inf, True):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")  # a regime warning before the check
                    func(**dict(VALID_CALLS[name], **{param: bad}))
            except Exception as error:  # any other failure is listed too
                if isinstance(error, ValueError) and re.search(rf"\b{param}\b", str(error)):
                    continue
            unnamed.append(f"{name}.{param}={bad!r}")
    assert unnamed == []
    assert ALLOWED_UNNAMED.keys() <= seen, "an allowed name has no float parameter: drop it"
    assert VALID_CALLS.keys() == checked
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        for name, kwargs in VALID_CALLS.items():  # each substitution is the one bad argument
            getattr(rydex, name)(**kwargs)


# finite edge floats, each to be taken or refused by name
FINITE_EDGES = (-1.0, 0.0, -0.0, 1e300, -1e300, 1e-300)
# the symbol a message may name instead of a parameter whose name holds the key
SYMBOLS = {"v_plus": "V+", "v_minus": "V-", "omega": "drive"}
# finite edges refused without the parameter's name or symbol, each with the reason
_BOTH_N_EFF = "names both values as 'n_eff X and Y', the form test_radial pins for the Anger series"
ALLOWED_UNNAMED_EDGES = {f"radial_integral.{param}={bad!r}": _BOTH_N_EFF
                         for param in ("n_eff1", "n_eff2") for bad in (1e300, 1e-300)}


def test_every_float_parameter_takes_or_names_a_finite_edge():
    """-1, +-0, +-1e300 and 1e-300 for each float parameter either return or raise a
    ValueError or DefectDataError naming it or its symbol; the finite twin of the
    bad-float walk."""
    unnamed = []
    for name, func, param in _float_parameters():
        if name in ALLOWED_UNNAMED or f"{name}.{param}" in ALLOWED_UNNAMED:
            continue
        names = [rf"\b{param}\b", *(re.escape(s) for key, s in SYMBOLS.items() if key in param)]
        for bad in FINITE_EDGES:
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    func(**dict(VALID_CALLS[name], **{param: bad}))
                continue
            except Exception as error:  # any other failure is listed too
                if isinstance(error, (ValueError, rydex.DefectDataError)) and any(
                        re.search(pattern, str(error)) for pattern in names):
                    continue
            unnamed.append(f"{name}.{param}={bad!r}")
    assert sorted(unnamed) == sorted(ALLOWED_UNNAMED_EDGES)


# out-of-domain ints past a non-integer and a bool, each to be refused by its parameter's name
OUT_OF_DOMAIN_INTS = {
    "DefectSeries.l": (-1,),
    "quantum_defect.l": (-1,),
    "quantum_defect.n": (0, -1),
    "radial_integral.l1": (-1,),
    "radial_integral.l2": (-1,),
    "propagate_sampled.n_samples": (1, 0, -1, 10**30, 2**58),
    "ChainSpec.atom_count": (0, 5, 10**30),
    "ChainSpec.pair": (-1, (73,), (73, 75, 77), [73, 75], (73, 75.5), (73, True)),
    "optimize_pairwise.seed": (-1,),
    "optimize_pairwise.restarts": (0, -1, 10**30),
    "RobustnessConfig.samples": (0, -1, 10**30, 2**58),
    "RobustnessConfig.seed": (-1, 2**64),
    "chain_ideal_state.atom_count": (4.0, 8, 5, 0, -1, 10**30),
}
# one valid call of each public function with int parameters and no float one
VALID_INT_CALLS = {**VALID_CALLS, "chain_ideal_state": dict(atom_count=4)}


def _int_parameters():
    """(name, callable, parameter) of each int parameter of a ``VALID_INT_CALLS`` entry."""
    for name in VALID_INT_CALLS:
        for p in inspect.signature(getattr(rydex, name)).parameters.values():
            if re.fullmatch(r"int|tuple\[int, int\]", str(p.annotation)):
                yield name, getattr(rydex, name), p.name


def test_every_int_parameter_refuses_a_bad_int_by_name():
    """2.5, True and each listed out-of-domain int raise a ValueError naming the
    parameter before any work starts; the int twin of the float walk."""
    unnamed, seen = [], set()
    for name, func, param in _int_parameters():
        seen.add(f"{name}.{param}")
        for bad in (2.5, True, *OUT_OF_DOMAIN_INTS.get(f"{name}.{param}", ())):
            try:
                with warnings.catch_warnings():
                    warnings.simplefilter("ignore")
                    func(**dict(VALID_INT_CALLS[name], **{param: bad}))
            except Exception as error:  # any other failure is listed too
                if isinstance(error, ValueError) and re.search(rf"\b{param}\b", str(error)):
                    continue
            unnamed.append(f"{name}.{param}={bad!r}")
    assert unnamed == []
    assert OUT_OF_DOMAIN_INTS.keys() <= seen
