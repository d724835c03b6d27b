"""Command-line driver.

Every run is deterministic: the pipeline contains no randomness (measurement
outcomes are enumerated or post-selected, never sampled), so identical
configs produce byte-identical output files. Tabular data is CSV with a
commented header embedding the schema version and the fully resolved
config; chain reports are JSON; Wigner grids are plain comma-separated
matrix text (one row per q value).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import sys
import warnings
from dataclasses import dataclass, fields

import numpy as np

from .fock import BinomialParams, FockConfig, QunaughtParams, binomial_state, qunaught_state
from .homodyne import OutcomeDistribution, label_peaks, quadrature_basis, resolve_outcome
from .metrics import default_grid, wigner
from .numerics import DEFAULT_TOLERANCES, NumericalError
from .protocol import (
    BranchResult,
    Schedule,
    breed_step,
    chain_prefixes,
    effective_squeezing_curve,
    enumerate_two_iterations,
    probability_fidelity_curve,
    sign_aggregated,
    sweep_binomial_inputs,
)

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    dim: int = 50
    delta_target: float = 0.4
    N: int = 2
    K: int = 3
    schedule: str = "qp"
    postselect: list = None  # tokens: eigenvalue indices or labels C/S1/S2/S
    t_max: int = None  # None -> smallest cutoff satisfying the tail bound
    output_path: str = "-"

    def validate(self):
        if self.dim < 2:
            raise ConfigError(f"dim must be at least 2, got {self.dim}")
        if not 0 < self.delta_target < 1:
            raise ConfigError(f"delta-target must be in (0, 1), got {self.delta_target}")
        if any(c not in "qp" for c in self.schedule) or not self.schedule:
            raise ConfigError(f"schedule must be a nonempty string over q/p, got {self.schedule!r}")
        if self.postselect is not None and len(self.postselect) != len(self.schedule):
            raise ConfigError(
                f"postselect needs one token per schedule step "
                f"({len(self.schedule)}), got {len(self.postselect)}"
            )
        if self.t_max is not None:
            QunaughtParams(delta=self.delta_target, t_max=self.t_max)  # rejects a short cutoff

    def fock(self) -> FockConfig:
        return FockConfig(dim=self.dim)

    def target(self):
        return qunaught_state(self.fock(), QunaughtParams(delta=self.delta_target, t_max=self.t_max))

    def input_state(self):
        return binomial_state(self.fock(), BinomialParams(self.N, self.K))

    def as_pairs(self):
        out = []
        for f in fields(self):
            value = getattr(self, f.name)
            if f.name == "postselect":
                value = "" if value is None else ",".join(str(t) for t in value)
            out.append((f.name, value))
        return out


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        return f"{x:.12g}"
    return str(x)


def _header_lines(cfg: RunConfig):
    lines = [f"# schema_version={SCHEMA_VERSION}"]
    for key, value in cfg.as_pairs():
        lines.append(f"# config {key}={_fmt(value) if value is not None else ''}")
    return lines


def _write(cfg: RunConfig, text: str, path: str | None = None):
    path = cfg.output_path if path is None else path
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w") as handle:
            handle.write(text)


def _sibling_path(path: str, suffix: str) -> str:
    if path == "-":
        return "-"
    stem, dot, ext = path.rpartition(".")
    if dot:
        return f"{stem}_{suffix}.{ext}"
    return f"{path}_{suffix}"


def _distribution(cfg: FockConfig, axis: str, probabilities) -> OutcomeDistribution:
    return OutcomeDistribution(axis, quadrature_basis(cfg, axis).eigenvalues, probabilities)


# ---------------------------------------------------------------- commands


def cmd_distribution(cfg: RunConfig) -> int:
    """First-iteration q outcome distribution, or the second-iteration p
    distribution conditioned on two first-level outcomes given via
    --postselect (the final schedule axis is measured)."""
    fock_cfg = cfg.fock()
    psi = cfg.input_state()
    axis = cfg.schedule[0]
    probabilities, posts = breed_step(psi, psi, axis, fock_cfg)
    if cfg.postselect is not None:
        if len(cfg.postselect) != 2:
            raise ConfigError("conditioned distribution needs exactly two postselect tokens")
        first = _distribution(fock_cfg, axis, probabilities)
        left, right = (resolve_outcome(first, token) for token in cfg.postselect)
        if min(probabilities[left], probabilities[right]) <= DEFAULT_TOLERANCES.probability_floor:
            raise NumericalError("conditioning outcome has underflowed probability")
        axis = cfg.schedule[-1]
        probabilities, _ = breed_step(posts[left], posts[right], axis, fock_cfg)
    dist = label_peaks(_distribution(fock_cfg, axis, probabilities))

    lines = _header_lines(cfg)
    lines.append("index,eigenvalue,rescaled_outcome,probability,label")
    rescaled = dist.rescaled_outcomes
    for i, prob in enumerate(dist.probabilities):
        label = dist.peak_labels.get(i, "")
        lines.append(
            f"{i},{_fmt(float(dist.eigenvalues[i]))},{_fmt(float(rescaled[i]))},"
            f"{_fmt(float(prob))},{label}"
        )
    _write(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_chain(cfg: RunConfig) -> int:
    """Uniformly post-selected chain; JSON report with one record per
    iteration count 0..k."""
    fock_cfg = cfg.fock()
    target = cfg.target()
    schedule = Schedule.from_string(cfg.schedule)
    tokens = cfg.postselect if cfg.postselect is not None else ["C"] * schedule.iterations
    records = []
    for prefix in chain_prefixes(fock_cfg, schedule, tokens, cfg.input_state()):
        result = BranchResult.evaluate(fock_cfg, prefix, target)
        records.append(
            {
                "iterations": len(result.outcome_path),
                "outcome_path": [list(step) for step in result.outcome_path],
                "log_probability": result.log_probability,
                "probability": result.probability,
                "aggregated_probability": result.sign_aggregated_probability(),
                "fidelity": result.fidelity,
                "effective_squeezing_q": result.effective_squeezing_q,
                "effective_squeezing_p": result.effective_squeezing_p,
            }
        )
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": {key: value for key, value in cfg.as_pairs()},
        "records": records,
    }
    _write(cfg, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return EXIT_OK


DEFAULT_FIDELITY_THRESHOLDS = [round(0.90 + 0.005 * i, 3) for i in range(21)]
DEFAULT_SQUEEZING_BOUNDS = [round(0.30 + 0.01 * i, 2) for i in range(41)]


def cmd_enumerate(cfg: RunConfig) -> int:
    """Full two-iteration outcome enumeration: leaf table plus the two
    cumulative curves, written as sibling CSV files."""
    fock_cfg = cfg.fock()
    probability, fid, delta = enumerate_two_iterations(fock_cfg, target=cfg.target())
    m = 3  # measurements in the two-iteration tree

    lines = _header_lines(cfg)
    lines.append("q1,q2,p,probability,aggregated_probability,fidelity,effective_squeezing")
    columns = np.stack([probability, sign_aggregated(probability, m), fid, delta], axis=-1)
    indices = itertools.product(range(fock_cfg.dim), repeat=3)
    for (q1, q2, p), values in zip(indices, columns.reshape(-1, 4).tolist()):
        lines.append(f"{q1},{q2},{p}," + ",".join(_fmt(v) for v in values))
    _write(cfg, "\n".join(lines) + "\n")

    curve_f = probability_fidelity_curve(probability, fid, DEFAULT_FIDELITY_THRESHOLDS)
    lines = _header_lines(cfg) + ["fidelity_threshold,cumulative_probability"]
    lines += [f"{_fmt(t)},{_fmt(p)}" for t, p in curve_f]
    _write(cfg, "\n".join(lines) + "\n", _sibling_path(cfg.output_path, "fidelity_curve"))

    curve_s = effective_squeezing_curve(probability, delta, DEFAULT_SQUEEZING_BOUNDS)
    lines = _header_lines(cfg) + ["squeezing_bound,cumulative_probability"]
    lines += [f"{_fmt(b)},{_fmt(p)}" for b, p in curve_s]
    _write(cfg, "\n".join(lines) + "\n", _sibling_path(cfg.output_path, "squeezing_curve"))
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    """Chain fidelity for a grid of binomial inputs against the targets
    delta-target and 0.35, center post-selection at every level."""
    fock_cfg = cfg.fock()
    schedule = Schedule.from_string(cfg.schedule)
    lines = _header_lines(cfg)
    lines.append("target_delta,N,K,iteration,fidelity,supported")
    deltas = sorted({cfg.delta_target, 0.35}, reverse=True)
    for delta in deltas:
        records = sweep_binomial_inputs(
            fock_cfg, [2, 3, 4], list(range(2, 8)), schedule, delta
        )
        for rec in records:
            lines.append(
                f"{_fmt(delta)},{rec.N},{rec.K},{rec.iteration},"
                f"{_fmt(rec.fidelity)},{str(rec.supported).lower()}"
            )
    _write(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


def cmd_wigner(cfg: RunConfig) -> int:
    """Wigner grid of the binomial input, the qunaught target, or the chain
    output, as plain comma-separated matrix text (one row per q value)."""
    fock_cfg = cfg.fock()
    if cfg.postselect is not None:
        schedule = Schedule.from_string(cfg.schedule)
        *_, (_, _, state) = chain_prefixes(fock_cfg, schedule, cfg.postselect, cfg.input_state())
    elif cfg.N == 0:  # sentinel: N=0 selects the qunaught target itself
        state = cfg.target()
    else:
        state = cfg.input_state()
    axis = default_grid()
    grid = wigner(state, axis, axis)
    lines = _header_lines(cfg)
    lines.append("# rows: q from %s to %s; columns: p likewise" % (_fmt(axis[0]), _fmt(axis[-1])))
    for row in grid.values:
        lines.append(",".join(_fmt(float(v)) for v in row))
    _write(cfg, "\n".join(lines) + "\n")
    return EXIT_OK


COMMANDS = {
    "distribution": cmd_distribution,
    "chain": cmd_chain,
    "enumerate": cmd_enumerate,
    "sweep": cmd_sweep,
    "wigner": cmd_wigner,
}


# ------------------------------------------------------------- arg parsing


def _read_config_file(path: str) -> dict:
    values = {}
    try:
        with open(path) as handle:
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    return values


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qpbreed",
        description="Grid-state breeding from binomial codes: distributions, "
        "post-selected chains, exhaustive enumeration, input sweeps, and "
        "Wigner grids.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, func in COMMANDS.items():
        p = sub.add_parser(name, help=func.__doc__.splitlines()[0])
        p.add_argument("--dim", type=int)
        p.add_argument("--delta-target", type=float)
        p.add_argument("--n", type=int, dest="N")
        p.add_argument("--k", type=int, dest="K")
        p.add_argument("--schedule")
        p.add_argument(
            "--postselect",
            help="comma-separated outcome tokens, one per schedule step: "
            "eigenvalue indices or labels C/S1/S2/S",
        )
        p.add_argument("--t-max", type=int)
        p.add_argument("--output-path")
        p.add_argument("--config", help="flat key=value config file; flags override it")
    return parser


_FIELD_TYPES = {
    "dim": int,
    "delta_target": float,
    "N": int,
    "K": int,
    "schedule": str,
    "t_max": int,
    "output_path": str,
}


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    if args.config:
        for key, raw in _read_config_file(args.config).items():
            if key == "postselect":
                cfg.postselect = [t for t in raw.split(",") if t]
                continue
            if key not in _FIELD_TYPES:
                raise ConfigError(f"unknown config key {key!r}")
            try:
                setattr(cfg, key, _FIELD_TYPES[key](raw))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key}: {raw!r}") from exc
    for name in _FIELD_TYPES:
        value = getattr(args, name, None)
        if value is not None:
            setattr(cfg, name, value)
    if getattr(args, "postselect", None) is not None:
        cfg.postselect = [t for t in args.postselect.split(",") if t]
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    with warnings.catch_warnings():  # one stderr line per distinct warning
        warnings.simplefilter("default")
        warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
        try:
            cfg = _resolve_config(args)
            return COMMANDS[args.command](cfg)
        except (ConfigError, ValueError, OSError) as exc:  # OSError: an unwritable output path
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_CONFIG
        except NumericalError as exc:
            print(f"numerical failure: {exc}", file=sys.stderr)
            return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
