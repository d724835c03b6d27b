"""Command-line driver.

Every run is deterministic: the pipeline contains no randomness (measurement
outcomes are enumerated or post-selected, never sampled), so identical
configs produce byte-identical output files. Tabular data is CSV with a
commented header embedding the schema version and the resolved settings
the command reads (:data:`READS`); chain reports are JSON; Wigner grids are
plain comma-separated matrix text (one row per q value).

Exit codes: 0 success, 2 configuration error, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys
import typing
from dataclasses import asdict, dataclass, fields

import numpy as np

from .fock import BinomialParams, FockConfig, QunaughtParams, binomial_state, qunaught_state
from .homodyne import OutcomeDistribution, label_peaks, quadrature_basis, select_outcome
from .metrics import default_grid, wigner
from .numerics import NumericalError
from .protocol import (
    BranchResult,
    Schedule,
    SweepRecord,
    breed_step,
    chain_prefixes,
    distinct_mirrors,
    effective_squeezing_curve,
    enumerate_two_iterations,
    leaf_fold,
    probability_fidelity_curve,
    sign_aggregated,
    sweep_binomial_inputs,
)

SCHEMA_VERSION = 2

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3

#: Refuse a dim whose packed beamsplitter, a (dim, dim, dim) float64 array,
#: would exceed this many bytes; it bounds dim at 645.
MAX_BEAMSPLITTER_BYTES = 2 * 2**30


@dataclass
class RunConfig:
    dim: int = 50
    delta_target: float = 0.4
    N: int = 2
    K: int = 3
    schedule: str = "qp"
    postselect: list = None  # tokens: eigenvalue indices or labels C/S1/S2/S
    output_path: str = "-"

    def validate(self):
        if self.dim < 2:
            raise ValueError(f"dim must be at least 2, got {self.dim}")
        if 8 * self.dim**3 > MAX_BEAMSPLITTER_BYTES:
            raise ValueError(
                f"dim {self.dim} is too large: its packed beamsplitter, dim³ float64 entries, "
                f"would exceed the budget of {MAX_BEAMSPLITTER_BYTES} bytes"
            )
        if not 0 < self.delta_target < 1:
            raise ValueError(f"delta-target must be in (0, 1), got {self.delta_target}")
        if any(c not in "qp" for c in self.schedule) or not self.schedule:
            raise ValueError(f"schedule must be a nonempty string over q/p, got {self.schedule!r}")
        if self.postselect is not None and len(self.postselect) != len(self.schedule):
            raise ValueError(
                f"postselect needs one token per schedule step "
                f"({len(self.schedule)}), got {len(self.postselect)}"
            )

    def fock(self) -> FockConfig:
        return FockConfig(dim=self.dim)

    def target(self):
        return qunaught_state(self.fock(), QunaughtParams(delta=self.delta_target))

    def input_state(self):
        return binomial_state(self.fock(), BinomialParams(self.N, self.K))

    def as_dict(self, command: str) -> dict:
        """The fields ``command`` reads, in field order, with the postselect
        tokens joined by commas."""
        tokens = "" if self.postselect is None else ",".join(map(str, self.postselect))
        values = {**asdict(self), "postselect": tokens}
        return {key: value for key, value in values.items() if key in READS[command]}


def _write_table(cfg: RunConfig, command: str, head: str, chunks, path=None):
    """Write a table: the schema version and the settings ``command`` reads
    as comment lines, then ``head``, then the rows, given as an iterable of
    text chunks that each hold whole formatted lines, newlines included. A
    generator of chunks is written as it is consumed."""
    header = [f"# schema_version={SCHEMA_VERSION}"]
    for key, value in cfg.as_dict(command).items():
        text = "%.12g" % value if isinstance(value, float) else value
        header.append(f"# config {key}={text}")
    header.append(head)
    _write(cfg, itertools.chain(["\n".join(header) + "\n"], chunks), path)


def _write(cfg: RunConfig, chunks, path: str | None = None):
    """Write the text chunks, in order, to ``path`` (``cfg.output_path``
    when None), where ``-`` is standard output."""
    path = cfg.output_path if path is None else path
    if path == "-":
        sys.stdout.writelines(chunks)
    else:
        with open(path, "w") as handle:
            handle.writelines(chunks)


def _sibling_path(path: str, suffix: str) -> str:
    if path == "-":
        return "-"
    root, ext = os.path.splitext(path)
    return f"{root}_{suffix}{ext}"


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
            raise ValueError("conditioned distribution needs exactly two postselect tokens")
        basis = quadrature_basis(fock_cfg, axis)
        left, right = (select_outcome(basis, probabilities, token) for token in cfg.postselect)
        axis = cfg.schedule[-1]
        probabilities, _ = breed_step(posts[left], posts[right], axis, fock_cfg)
    eigenvalues = quadrature_basis(fock_cfg, axis).eigenvalues
    dist = label_peaks(OutcomeDistribution(axis, eigenvalues, probabilities))
    columns = zip(dist.eigenvalues, dist.rescaled_outcomes, dist.probabilities)
    rows = [(i, *values, dist.peak_labels.get(i, "")) for i, values in enumerate(columns)]
    head = "index,eigenvalue,rescaled_outcome,probability,label"
    _write_table(cfg, "distribution", head, ["%d,%.12g,%.12g,%.12g,%s\n" % row for row in rows])
    return EXIT_OK


def cmd_chain(cfg: RunConfig) -> int:
    """Uniformly post-selected chain; JSON report with one record per
    iteration count 0..k."""
    fock_cfg = cfg.fock()
    target = cfg.target()
    schedule = Schedule.from_string(cfg.schedule)
    tokens = cfg.postselect if cfg.postselect is not None else ["C"] * schedule.iterations
    records = []  # json writes the outcome_path tuples as lists
    for prefix in chain_prefixes(fock_cfg, schedule, tokens, cfg.input_state()):
        result = vars(BranchResult.evaluate(fock_cfg, prefix, target))
        records.append({key: value for key, value in result.items() if key != "state"})
    payload = {
        "schema_version": SCHEMA_VERSION,
        "config": cfg.as_dict("chain"),
        "records": records,
    }
    _write(cfg, [json.dumps(payload, indent=2, sort_keys=True) + "\n"])
    return EXIT_OK


DEFAULT_FIDELITY_THRESHOLDS = [round(0.90 + 0.005 * i, 3) for i in range(21)]
DEFAULT_SQUEEZING_BOUNDS = [round(0.30 + 0.01 * i, 2) for i in range(41)]


def cmd_enumerate(cfg: RunConfig) -> int:
    """Full two-iteration outcome enumeration: leaf table plus the two
    cumulative curves, written as sibling CSV files."""
    # each canonical leaf is formatted and scored once; the other leaves of
    # its orbit repeat its values. The fold refuses a dim over the leaf
    # budget, so it comes before the target is built
    fold, canonical = leaf_fold(cfg.dim)
    probability, fid, delta = (
        leaves[canonical] for leaves in enumerate_two_iterations(cfg.fock(), target=cfg.target())
    )
    # per canonical leaf [q1, q2, p], how many of its three outcomes have a distinct mirror
    q1, q2, p = np.nonzero(canonical)
    m = sum(distinct_mirrors(cfg.dim, index) for index in (q1, q2, p))
    columns = [probability, sign_aggregated(probability, m), fid, delta]
    rows = zip(*(column.tolist() for column in columns))
    values = ["%.12g,%.12g,%.12g,%.12g" % row for row in rows]
    # the text after "q1,q2," depends only on the pair's orbit, named by its
    # leaf at p = 0: its dim "p,values" strings are made once per orbit,
    # each from the p's "p," label
    labels = [f"{p}," for p in range(cfg.dim)]
    tails = {
        leaves[0]: [label + values[leaf] for label, leaf in zip(labels, leaves)]
        for leaves in fold[canonical.any(axis=2)].tolist()
    }
    orbit = fold[:, :, 0].tolist()
    slabs = (  # one q1 at a time, so that no more than dim² row strings are held
        "".join(
            f"{q1},{q2}," + f"\n{q1},{q2},".join(tails[orbit[q1][q2]]) + "\n"
            for q2 in range(cfg.dim)
        )
        for q1 in range(cfg.dim)
    )
    head = "q1,q2,p,probability,aggregated_probability,fidelity,effective_squeezing"
    _write_table(cfg, "enumerate", head, slabs)
    # by orbit size, the number of leaves the fold maps to each canonical one
    weighted = probability * np.bincount(fold.ravel())
    curve_f = probability_fidelity_curve(weighted, fid, DEFAULT_FIDELITY_THRESHOLDS)
    curve_s = effective_squeezing_curve(weighted, delta, DEFAULT_SQUEEZING_BOUNDS)
    for suffix, column, points in (
        ("fidelity_curve", "fidelity_threshold", curve_f),
        ("squeezing_curve", "squeezing_bound", curve_s),
    ):
        path = _sibling_path(cfg.output_path, suffix)
        lines = ["%.12g,%.12g\n" % point for point in points]
        _write_table(cfg, "enumerate", f"{column},cumulative_probability", lines, path)
    return EXIT_OK


def cmd_sweep(cfg: RunConfig) -> int:
    """Chain fidelity for a grid of binomial inputs against the targets
    delta-target and 0.35, center post-selection at every level."""
    schedule = Schedule.from_string(cfg.schedule)
    deltas = sorted({cfg.delta_target, 0.35}, reverse=True)
    rows = [
        tuple({**vars(rec), "supported": str(rec.supported).lower()}.values())
        for rec in sweep_binomial_inputs(cfg.fock(), [2, 3, 4], list(range(2, 8)), schedule, *deltas)
    ]
    head = ",".join(field.name for field in fields(SweepRecord))
    _write_table(cfg, "sweep", head, ["%.12g,%d,%d,%d,%.12g,%s\n" % row for row in rows])
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
    head = "# rows: q from %.12g to %.12g; columns: p likewise" % (axis[0], axis[-1])
    _write_table(cfg, "wigner", head, _matrix_lines(grid))
    return EXIT_OK


def _matrix_lines(values: np.ndarray) -> list[str]:
    """The rows of a matrix as comma-separated ``%.12g`` text lines. A row
    bitwise equal to its mirror row is not formatted again, and a row that
    is bitwise its own reverse is formatted from its first half, so a grid
    mirrored in both axes formats a quarter of its cells."""
    n_rows, n_columns = values.shape
    half = (n_columns + 1) // 2
    half_format = "%.12g," * half
    lines = []
    for i, row in enumerate(values):
        mirror = n_rows - 1 - i
        if mirror < i and row.tobytes() == values[mirror].tobytes():
            lines.append(lines[mirror])
        elif row.tobytes() == row[::-1].tobytes():
            cells = (half_format % tuple(row[:half].tolist())).split(",")[:half]
            lines.append(",".join(cells + cells[: n_columns // 2][::-1]) + "\n")
        else:
            lines.append(",".join(["%.12g"] * n_columns) % tuple(row.tolist()) + "\n")
    return lines


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
        with open(path, encoding="utf-8-sig") as handle:  # a BOM is not part of the first key
            for lineno, raw in enumerate(handle, start=1):
                line = raw.strip()
                if not line or line.startswith("#"):
                    continue
                if "=" not in line:
                    raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
                key, _, value = line.partition("=")
                values[key.strip().replace("-", "_")] = value.strip()
    except (OSError, UnicodeDecodeError) as exc:
        raise ValueError(f"cannot read config file {path}: {exc}") from exc
    return values


#: How each RunConfig field is parsed from its text, alike for its flag
#: (``--`` and the field name in lower kebab case) and its config-file key
#: (the field name): by its annotated type, but postselect by its tokens.
_FIELDS = {
    **typing.get_type_hints(RunConfig),
    "postselect": lambda text: [t for t in text.split(",") if t],
}

#: The RunConfig fields each command reads: its flags, its config-file keys
#: and the settings its outputs echo.
READS = {
    "distribution": set(_FIELDS) - {"delta_target"},
    "chain": set(_FIELDS),
    "enumerate": {"dim", "delta_target", "output_path"},
    "sweep": {"dim", "delta_target", "schedule", "output_path"},
    "wigner": set(_FIELDS),
}


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of ``argv``. When its first argument names a command, the
    parser holds that command's subparser alone; otherwise it holds all of
    them, so that the top-level help and the error for a missing or unknown
    command list every command. Both usage lines name every command."""
    parser = argparse.ArgumentParser(
        prog="qpbreed",
        description="Grid-state breeding from binomial codes: distributions, "
        "post-selected chains, exhaustive enumeration, input sweeps, and "
        "Wigner grids. --postselect takes comma-separated outcome tokens, one "
        "per schedule step: eigenvalue indices or labels C/S1/S2/S.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    names = list(COMMANDS)
    if argv and argv[0] in COMMANDS:
        names = [argv[0]]
        sub.metavar = "{%s}" % ",".join(COMMANDS)  # printed in an unrecognized argument's usage line
    for name in names:
        p = sub.add_parser(name, help=COMMANDS[name].__doc__.splitlines()[0])
        for field, parse in _FIELDS.items():
            if field in READS[name]:
                p.add_argument("--" + field.lower().replace("_", "-"), type=parse, dest=field)
        p.add_argument("--config", help="flat key=value config file; flags override it")
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    cfg = RunConfig()
    reads = READS[args.command]
    for key, raw in (_read_config_file(args.config) if args.config else {}).items():
        if key not in reads:
            known = ", ".join(field for field in _FIELDS if field in reads)
            raise ValueError(f"{args.command} reads no config key {key!r}; it reads {known}")
        try:
            setattr(cfg, key, _FIELDS[key](raw))
        except ValueError as exc:
            raise ValueError(f"bad value for {key}: {raw!r}") from exc
    for field in reads:
        if getattr(args, field) is not None:
            setattr(cfg, field, getattr(args, field))
    cfg.validate()
    return cfg


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:  # argparse has printed the help, or its usage error
        return exc.code
    try:
        cfg = _resolve_config(args)
        return COMMANDS[args.command](cfg)
    except (ValueError, OSError) as exc:  # OSError: an unwritable output path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except MemoryError as exc:  # raised by the commands, after cfg is resolved
        print(f"error: dim={cfg.dim} needs more memory than is available: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NumericalError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
