"""Command-line front end.

Subcommands mirror the library: interaction coefficients, critical
radii, protocol simulations, robustness scans, and table/figure
reproduction. Results print as JSON (default) or CSV; ``--out`` writes
to a file instead of stdout. A ``--config`` file holds flat
``key value`` or ``key = value`` pairs mirroring the long flags
(``optimize yes``/``no`` for a switch); keys that only other commands
take are skipped, and command-line flags override the file.

Exit codes: 0 on success, 2 on usage errors, 1 on computation or data
errors, a NaN or infinity in the result and an array too large to
allocate included (nothing is written).
"""

from __future__ import annotations

import argparse
import gc
import logging
import math
import re
import sys
import warnings

if __name__ == "__main__":  # off before numpy loads: a command leaves a few hundred cycles
    gc.disable()

from .atoms import DefectDataError, QuantumDefectModel, _require_finite
from .harness import (
    SCHEMA,
    _json_text,
    dumps_json,
    histogram_payload,
    histogram_rows,
    robustness_scan,
    rows_to_csv,
)
from .vdw import c6_pair, critical_radius

# each handler imports the modules only it runs (protocols, chain, scan, tables,
# figures), so a command compiles no other command's code

__all__ = ["build_parser", "main", "run"]

# what float() reads after a minus sign; argparse's own pattern leaves out exponents
_NEGATIVE_NUMBER = re.compile(r"^-((\d+\.?\d*|\.\d+)(e[-+]?\d+)?|inf(inity)?|nan)$", re.I)


def _add_pair_options(p: argparse.ArgumentParser, required: bool) -> None:
    p.add_argument("--na", type=int, required=required, default=None if required else 73,
                   help="principal quantum number of atom A")
    p.add_argument("--nb", type=int, required=required, default=None if required else 75,
                   help="principal quantum number of atom B")


def _add_coupling_overrides(p: argparse.ArgumentParser) -> None:
    p.add_argument("--spacing", type=float, default=15.0,
                   help="atom separation in um (default 15)")
    p.add_argument("--v-plus", type=float, default=None,
                   help="override the symmetric Bell-state shift in kHz")
    p.add_argument("--v-minus", type=float, default=None,
                   help="override the antisymmetric Bell-state shift in kHz")


def _window_options(p: argparse.ArgumentParser, dn: int) -> None:
    _add_pair_options(p, required=True)
    p.add_argument("--dn", type=int, default=dn,
                   help=f"intermediate-level window half-width (default {dn})")


def _pair_sim_options(p: argparse.ArgumentParser) -> None:
    _add_pair_options(p, required=False)
    _add_coupling_overrides(p)
    p.add_argument("--omega2", type=float, default=None,
                   help="pulse-2 Rabi frequency in kHz (default sqrt|V+ V-|)")
    p.add_argument("--omega3", type=float, default=None,
                   help="pulse-3 Rabi frequency in kHz (default sqrt|V+ V-|)")
    p.add_argument("--tau2", type=float, default=None,
                   help="pulse-2 duration in us (default: closed form)")
    p.add_argument("--tau3", type=float, default=None,
                   help="pulse-3 duration in us (default: half period)")
    p.add_argument("--optimize", action="store_true",
                   help="run the restarted simplex search instead of one shot")
    p.add_argument("--seed", type=int, default=None,
                   help="seed for the optimizer restarts (default 0)")


def _swap_sim_options(p: argparse.ArgumentParser) -> None:
    _add_pair_options(p, required=False)
    _add_coupling_overrides(p)
    p.add_argument("--omega", type=float, default=None,
                   help="2pi-pulse Rabi frequency in kHz (default 1.5 sqrt|V+ V-|)")
    p.add_argument("--t2pi", type=float, default=None,
                   help="2pi window in us (default 1000/omega)")
    p.add_argument("--v-blockade", type=float, default=None,
                   help="parallel-spin blockade shift in kHz (default: computed)")
    p.add_argument("--phi", type=float, default=0.0,
                   help="drive phase in radians (default 0)")


def _chain_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--atoms", type=int, default=4,
                   help="chain length: 4, 6, or a multiple of 4 up to 2**53 (default 4)")
    _add_pair_options(p, required=False)
    p.add_argument("--spacing", type=float, default=15.0,
                   help="lattice spacing in um (default 15)")
    p.add_argument("--gamma", type=float, default=1.0 / 0.45,
                   help="Rydberg decay rate in 1/ms (default 1/0.45)")
    p.add_argument("--f1", type=float, default=None,
                   help="pairwise fidelity override (default: simulated)")
    p.add_argument("--fswap", type=float, default=None,
                   help="SWAP fidelity override (default: simulated)")
    p.add_argument("--tau", type=float, default=None,
                   help="per-operation Rydberg exposure in us "
                        "(default: from the simulated protocols)")


def _robustness_options(p: argparse.ArgumentParser) -> None:
    _add_pair_options(p, required=False)
    _add_coupling_overrides(p)
    p.add_argument("--epsilon", type=float, default=0.1,
                   help="relative dispersion half-width (default 0.1)")
    p.add_argument("--samples", type=int, default=100000,
                   help="Monte Carlo samples (default 100000)")
    p.add_argument("--seed", type=int, default=12345,
                   help="scan seed (default 12345)")
    p.add_argument("--omega", type=float, default=None,
                   help="nominal Rabi frequency in kHz (default sqrt|V+ V-|)")


def _table_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("table_id", choices=("I", "II", "III", "IV"), metavar="{I,II,III,IV}")


def _figure_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("figure_id", type=int, choices=(3, 4), metavar="{3,4}")
    p.add_argument("--samples", type=int, default=100000,
                   help="Monte Carlo samples for the histogram figure")
    p.add_argument("--seed", type=int, default=12345,
                   help="seed for the histogram figure")


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The CLI parser: one subparser per command, each with its options. When
    ``command`` names one, only its subparser gets options (the others keep their
    name and help line), which is all that parsing that command reads."""
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--defects", metavar="FILE", default=None,
                        help="quantum-defect data file (default: bundled Rb-87)")
    common.add_argument("--out", metavar="PATH", default=None,
                        help="write the result to this file")
    common.add_argument("--format", choices=("json", "csv"), default="json",
                        help="output format (default json)")
    common.add_argument("--config", metavar="FILE", default=None,
                        help="flat key-value settings file; flags override it")

    parser = argparse.ArgumentParser(
        prog="rydex",
        description="Spin-exchange Rydberg interactions and entanglement protocols.",
    )
    sub = parser.add_subparsers(dest="command", required=True, metavar="COMMAND")
    every = command not in _COMMANDS
    for name, (help_line, add_options, _) in _COMMANDS.items():
        if every or name == command:
            p = sub.add_parser(name, parents=[common], help=help_line)
            add_options(p)
            # "-5e0" is a value, as in "--v-plus=-5e0"
            p._negative_number_matcher = _NEGATIVE_NUMBER
        else:
            sub.add_parser(name, help=help_line)
    return parser


def _load_config(path: str) -> dict[str, str]:
    """Flat key-value settings: ``key value`` or ``key = value`` lines."""
    entries: dict[str, str] = {}
    with open(path, encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" in line:
                key, _, value = line.partition("=")
            else:
                key, _, value = line.partition(" ")
            key = key.strip().lstrip("-").replace("-", "_")
            value = value.strip()
            if not key or not value:
                raise ValueError(f"{path}:{lineno}: expected 'key value' pairs")
            entries[key] = value
    return entries


def _flatten(data, prefix: str = "") -> list[tuple[str, object]]:
    rows: list[tuple[str, object]] = []
    for key in sorted(data):
        value = data[key]
        name = f"{prefix}{key}"
        if isinstance(value, dict):
            rows.extend(_flatten(value, prefix=f"{name}."))
        elif isinstance(value, (list, tuple)):
            rows.append((name, _json_text(value, None)))
        else:
            rows.append((name, value))
    return rows


def _emit(args, data: dict, csv_spec: tuple[list[str], list] | None = None) -> None:
    if args.format == "csv":
        if csv_spec is None:
            csv_spec = (["key", "value"], [list(r) for r in _flatten(data)])
        text = rows_to_csv(*csv_spec)
    else:
        text = dumps_json(data)
    if args.out:
        with open(args.out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _couplings(args, model):
    from .protocols import pair_couplings

    if (args.v_plus is None) != (args.v_minus is None):
        raise ValueError("--v-plus and --v-minus must be given together")
    if args.v_plus is not None:
        return args.v_plus, args.v_minus, None
    coup = pair_couplings(model, args.na, args.nb, args.spacing)
    return coup.v_plus_khz, coup.v_minus_khz, coup


def _cmd_coeffs(args, model):
    pair = c6_pair(model, args.na, args.nb, dn_cutoff=args.dn)
    if pair.c6 == 0.0:
        raise ZeroDivisionError(
            f"C6 of ({pair.n_a}s, {pair.n_b}s) at dn_cutoff {pair.dn_cutoff} sums to exactly 0, "
            "so the ratio C6_exchange / C6 is undefined"
        )
    return {
        "schema": SCHEMA,
        "command": "coeffs",
        "n_a": pair.n_a,
        "n_b": pair.n_b,
        "dn_cutoff": pair.dn_cutoff,
        "c6_ghz_um6": pair.c6,
        "c6_exchange_ghz_um6": pair.c6_exchange,
        "ratio": abs(pair.c6_exchange / pair.c6),
        "channel_sums_ghz_um6": {
            str(k): v for k, v in enumerate(pair.channel_sums, start=1)
        },
    }, None


def _cmd_critical_radius(args, model):
    cr = critical_radius(model, args.na, args.nb, dn_cutoff=args.dn)
    return {
        "schema": SCHEMA,
        "command": "critical-radius",
        "n_a": args.na,
        "n_b": args.nb,
        **cr._asdict(),
    }, None


def _working_drive(v_plus: float, v_minus: float) -> float:
    """sqrt|V+ V-|, which a command derives its default drives from; refused when
    0 or past the float range."""
    from .protocols import _nominal_omega

    omega = _nominal_omega(v_plus, v_minus)
    if not 0 < omega < math.inf:
        need = "nonzero" if omega == 0 else "finite"
        raise ValueError(f"the working drive sqrt|V+ V-| is {omega:g} for V+ = {v_plus} kHz and "
                         f"V- = {v_minus} kHz: derived drives need a {need} --v-plus and --v-minus")
    return omega


def _pair_header(args, v_plus: float, v_minus: float) -> dict:
    """The keys that open the pair-sim and swap-sim payloads."""
    return {"schema": SCHEMA, "command": args.command, "n_a": args.na, "n_b": args.nb,
            "spacing_um": args.spacing, "v_plus_khz": v_plus, "v_minus_khz": v_minus}


def _cmd_pair_sim(args, model):
    from .protocols import optimize_pairwise, pairwise_entangle

    v_plus, v_minus, _ = _couplings(args, model)
    derived = args.optimize or args.omega2 is None or args.omega3 is None
    nominal = _working_drive(v_plus, v_minus) if derived else None
    omega2 = args.omega2 if args.omega2 is not None else nominal
    omega3 = args.omega3 if args.omega3 is not None else nominal
    data = _pair_header(args, v_plus, v_minus)
    if args.optimize:
        ignored = [f"--{k}" for k in ("omega2", "omega3", "tau2", "tau3")
                   if vars(args)[k] is not None]
        if ignored:  # not an error either: a shared --config may set them
            warnings.warn(f"--optimize ignores {', '.join(ignored)}: it sets its own drives and times")
        seed = 0 if args.seed is None else args.seed
        opt = optimize_pairwise(v_plus, v_minus, seed=seed)
        result = opt.result
        data["optimizer"] = {
            "start_fidelity": opt.start_fidelity,
            "converged": opt.converged,
            "seed": seed,
        }
    else:
        if args.seed is not None:  # not an error: a shared --config may set seed
            warnings.warn(f"--seed {args.seed} has no effect without --optimize")
        result = pairwise_entangle(
            omega2, omega3, v_plus, v_minus, tau2_us=args.tau2, tau3_us=args.tau3
        )
    data.update(result._asdict(), total_duration_us=sum(result.per_pulse_durations_us))
    del data["trajectory"]
    return data, None


def _cmd_swap_sim(args, model):
    from .protocols import _swap_point, swap_gate

    v_plus, v_minus, coup = _couplings(args, model)
    if args.v_blockade is not None:
        # refused under the flag's name before swap_gate refuses it under its own
        _require_finite("--v-blockade", args.v_blockade)
        v_blockade = args.v_blockade
    elif coup is not None:
        v_blockade = coup.corner_khz
    else:
        raise ValueError("--v-blockade is required when couplings are injected")
    nominal = _working_drive(v_plus, v_minus) if args.omega is None else None
    omega, t_2pi = _swap_point(nominal, args.omega, args.t2pi)
    result = swap_gate(omega, v_plus, v_minus, v_blockade, t_2pi, phi=args.phi)
    return {
        **_pair_header(args, v_plus, v_minus),
        "v_blockade_khz": v_blockade,
        "omega_khz": omega,
        "t_2pi_us": t_2pi,
        "phi": args.phi,
        **result._asdict(),
    }, None


def _cmd_chain(args, model):
    from .chain import ChainSpec, chain_protocol

    spec = ChainSpec(
        atom_count=args.atoms,
        spacing_um=args.spacing,
        pair=(args.na, args.nb),
        gamma_per_ms=args.gamma,
    )
    chain = chain_protocol(model, spec, f1=args.f1, f_swap=args.fswap, tau_us=args.tau)
    return {
        "schema": SCHEMA,
        "command": "chain",
        "atom_count": spec.atom_count,
        "n_a": args.na,
        "n_b": args.nb,
        "spacing_um": args.spacing,
        "gamma_per_ms": args.gamma,
        "f1": chain.f1,
        "f_swap": chain.f_swap,
        "tau_us": chain.tau_us,
        **chain.estimate._asdict(),
        "schedule": {
            "pulse_count": len(chain.schedule.pulses),
            "step_durations_us": list(chain.schedule.step_durations_us),
            "total_duration_us": chain.schedule.total_duration_us,
        },
        "spectator": chain.spectator._asdict(),
    }, None


def _cmd_robustness(args, model):
    from .scan import RobustnessConfig

    v_plus, v_minus, _ = _couplings(args, model)
    omega = args.omega if args.omega is not None else _working_drive(v_plus, v_minus)
    cfg = RobustnessConfig(
        epsilon=args.epsilon,
        samples=args.samples,
        seed=args.seed,
        omega_khz=omega,
        v_plus_khz=v_plus,
        v_minus_khz=v_minus,
    )
    hist = robustness_scan(cfg)
    return histogram_payload(cfg, hist), histogram_rows(hist)


def _cmd_table(args, model):
    from .tables import run_table

    data = run_table(args.table_id, model)
    return data, (data["columns"], data["rows"])


def _cmd_figure(args, model):
    from .figures import run_figure

    data = run_figure(args.figure_id, model, samples=args.samples, seed=args.seed)
    return data, (data["columns"], data["rows"])


# each command's help line, the function adding its options and its handler, in help order
_COMMANDS = {
    "coeffs": ("van der Waals coefficients of an (na, nb) pair",
               lambda p: _window_options(p, 10), _cmd_coeffs),
    "critical-radius": ("crossover radius to the resonant dipole regime",
                        lambda p: _window_options(p, 3), _cmd_critical_radius),
    "pair-sim": ("three-pulse Bell-state preparation", _pair_sim_options, _cmd_pair_sim),
    "swap-sim": ("pi/2pi/pi signed-SWAP gate", _swap_sim_options, _cmd_swap_sim),
    "chain": ("chain schedule, fidelity estimate, spectator shift", _chain_options, _cmd_chain),
    "robustness": ("Monte Carlo fidelity distribution under drive dispersion",
                   _robustness_options, _cmd_robustness),
    "table": ("reproduce a reference table with deviations", _table_options, _cmd_table),
    "figure": ("emit plot data for the trajectory or histogram figure", _figure_options,
               _cmd_figure),
}


def _config_path(argv: list[str]) -> str | None:
    """The ``--config`` file of ``argv`` as argparse reads it, ``--conf f`` and
    ``--config=f`` included; None for a bare ``--config``, left to the subparser."""
    peek = argparse.ArgumentParser(add_help=False)
    peek.add_argument("--config", nargs="?")
    return peek.parse_known_args(argv)[0].config


def _splice_config(parser: argparse.ArgumentParser, argv: list[str],
                   path: str | None) -> list[str]:
    """Insert the entries of the ``--config`` file ``path`` as ``--key=value`` tokens
    right after the subcommand: argparse then coerces and checks them, and typed
    flags, parsed later, win. Keys that only other subcommands own are skipped; a key
    no subcommand owns is refused, so ``parser`` has every subcommand's options."""
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    if path is None or argv[0] not in sub.choices:
        return argv
    options = {
        name: {a.dest: a for a in child._actions if a.option_strings and a.dest != "help"}
        for name, child in sub.choices.items()
    }
    tokens = []
    try:
        for key, value in _load_config(path).items():
            if not any(key in owned for owned in options.values()):
                raise ValueError(f"unknown config key {key!r}")
            action = options[argv[0]].get(key)
            if action is None or key == "config":
                continue
            flag = action.option_strings[0]
            if action.nargs != 0:
                tokens.append(f"{flag}={value}")
            elif value.lower() in ("1", "true", "yes", "on"):
                tokens.append(flag)
            elif value.lower() not in ("0", "false", "no", "off"):
                raise ValueError(f"config key {key!r}: not a boolean: {value!r}")
    except (OSError, ValueError) as exc:
        parser.error(str(exc))
    return [argv[0], *tokens, *argv[1:]]


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    path = _config_path(argv)
    # a config file's keys are sorted by every subcommand's options
    parser = build_parser(argv[0] if argv and path is None else None)
    args, extra = parser.parse_known_args(_splice_config(parser, argv, path))
    if extra:  # after the subcommand, reported by it, with its usage, as its other errors
        sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
        owner = sub.choices[args.command] if argv[0] == args.command else parser
        owner.error(f"unrecognized arguments: {' '.join(extra)}")
    try:
        model = (
            QuantumDefectModel.from_file(args.defects)
            if args.defects
            else QuantumDefectModel.default()
        )
        data, csv_spec = _COMMANDS[args.command][2](args, model)
        _emit(args, data, csv_spec)
    except (ValueError, ArithmeticError, DefectDataError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


def _warning_line(message, category, filename, lineno, file=None, line=None) -> None:
    print(f"warning: {message}", file=sys.stderr)


def run() -> int:
    """The ``rydex`` console command: ``main`` with each raised or logged warning printed
    as one ``warning: <message>`` line on stderr, without a source path. The cyclic
    collector stays off: a command's garbage does not grow with its work."""
    gc.disable()
    warnings.showwarning = _warning_line
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("warning: %(message)s"))
    logging.getLogger("rydex").addHandler(handler)
    code = main()
    # teardown's collections would walk every live object, numpy's too, for about a tenth
    # of a short command; frozen, they are skipped, and atexit and flushing still run
    gc.freeze()
    return code


if __name__ == "__main__":
    sys.exit(run())
