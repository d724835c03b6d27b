"""The benchmark's workloads and the checks on their outputs.

Each workload is a list of CLI commands run back to back, one fresh process
each. A command writes its outputs to files named relative to the working
directory; the CSV and JSON headers echo ``--output-path``, so the same names
are used on every repetition and outputs can be compared byte for byte.

The checks take the outputs of one repetition, as ``{command: {file:
bytes}}``, and return the problems found per command together with
``ref_dev``, the largest deviation of a checked fidelity from the paper's
reference value.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

CHAIN_SCHEDULE = "pqpqpqpq"
ATLAS_DIM = 50
# One leaf per outcome triple (q1, q2, p).
ATLAS_LEAVES = ATLAS_DIM**3
LADDER_DIMS = (50, 70, 100)

# (q1, q2, p) -> (fidelity, mirror-aggregated probability, delta_q); paper Table 1.
TABLE_1 = {
    (24, 24, 17): (0.9887, 0.004, 0.3765),
    (24, 24, 24): (0.9834, 0.0134, 0.3522),
    (19, 18, 24): (0.9830, 0.0038, 0.4918),
    (19, 19, 24): (0.9816, 0.0063, 0.5003),
}
# iterations -> (fidelity, mirror-aggregated probability); paper Table 3, dim 50.
TABLE_3 = {
    0: (0.941, 1.0),
    2: (0.9848, 0.0134),
    4: (0.9875, 4.5e-10),
    6: (0.9884, 6.4e-40),
    8: (0.9897, 6.4e-159),
}
# iteration -> fidelity of the (N=2, K=3) input against the delta 0.4 target.
SWEEP_REFERENCE = {0: 0.941, 2: 0.9848}

# Tolerances of the repository's acceptance gate.
FIDELITY_TOL = 0.002
AGGREGATED_PROBABILITY_TOL = 5e-4
SQUEEZING_TOL = 0.005
LOG_PROBABILITY_REL_TOL = 0.10
PROBABILITY_SUM_TOL = 1e-10
# Outputs are printed to 12 significant digits; 50 rounded values still sum
# to 1 far within this.
DISTRIBUTION_SUM_TOL = 1e-9
# The CLI's Wigner grid covers [-5, 5]^2, which cuts off part of the envelope
# of grid states: the qunaught target integrates to 0.982 there and the (C, C)
# chain to 0.970. The check catches normalisation errors, not truncation.
WIGNER_EXTENT = 5.0
WIGNER_INTEGRAL_TOL = 0.05

Q_LABELS = ("C", "S1", "S2")
P_LABELS = ("C", "S")


@dataclass(frozen=True)
class Command:
    name: str
    args: tuple[str, ...]
    outputs: tuple[str, ...]
    dim: int = 50


def _command(name: str, args: list[str], output: str, dim: int = 50, extra=()) -> Command:
    return Command(name, (*args, "--output-path", output), (output, *extra), dim)


def commands(workload: str, seed: int) -> list[Command]:
    """The workload's commands. Only ``survey`` depends on the seed."""
    if workload == "atlas":
        return [
            _command(
                "enumerate",
                ["enumerate", "--dim", str(ATLAS_DIM)],
                "atlas.csv",
                extra=("atlas_fidelity_curve.csv", "atlas_squeezing_curve.csv"),
            )
        ]
    if workload == "ladder":
        tokens = ",".join("C" * len(CHAIN_SCHEDULE))
        return [
            _command(
                f"chain-dim{dim}",
                ["chain", "--schedule", CHAIN_SCHEDULE, "--postselect", tokens, "--dim", str(dim)],
                f"chain_dim{dim}.json",
                dim=dim,
            )
            for dim in LADDER_DIMS
        ]
    if workload == "survey":
        rng = random.Random(seed)
        conditioned = f"{rng.choice(Q_LABELS)},{rng.choice(Q_LABELS)}"
        chain = f"{rng.choice(Q_LABELS)},{rng.choice(P_LABELS)}"
        return [
            _command("sweep", ["sweep", "--schedule", "pqpq"], "sweep.csv"),
            _command("wigner-input", ["wigner"], "wigner_input.csv"),
            _command("wigner-target", ["wigner", "--n", "0"], "wigner_target.csv"),
            _command(
                "wigner-chain",
                ["wigner", "--schedule", "qp", "--postselect", chain],
                "wigner_chain.csv",
            ),
            _command("distribution", ["distribution"], "distribution.csv"),
            _command(
                "distribution-conditioned",
                ["distribution", "--postselect", conditioned],
                "distribution_conditioned.csv",
            ),
        ]
    raise ValueError(f"unknown workload {workload!r}")


# ------------------------------------------------------------------ parsing


def csv_rows(data: bytes) -> list[list[str]]:
    """Data rows of a CLI CSV file: comment lines and the column header dropped."""
    lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
    return [line.split(",") for line in lines[1:]]


def matrix(data: bytes) -> list[list[float]]:
    lines = [line for line in data.decode().splitlines() if not line.startswith("#")]
    return [[float(value) for value in line.split(",")] for line in lines]


def trapezoid(values, step: float) -> float:
    return step * (math.fsum(values) - 0.5 * (values[0] + values[-1]))


def wigner_integral(grid: list[list[float]]) -> float:
    """Integral of the CLI's Wigner grid, whose axes run over [-5, 5]."""
    step = 2 * WIGNER_EXTENT / (len(grid) - 1)
    return trapezoid([trapezoid(row, step) for row in grid], step)


# ------------------------------------------------------------------- checks


class Problems:
    """Problems found per command, and the largest reference deviation."""

    def __init__(self):
        self.by_command: dict[str, list[str]] = {}
        self.ref_dev = 0.0
        self.notes: dict[str, float] = {}

    def require(self, command: str, ok: bool, message: str):
        if not ok:
            self.by_command.setdefault(command, []).append(message)

    def reference(self, command: str, what: str, value: float, ref: float, tol: float):
        deviation = abs(value - ref)
        self.ref_dev = max(self.ref_dev, deviation)
        self.require(command, deviation <= tol, f"{what}: {value:.6g} vs reference {ref} (tol {tol})")


def check_atlas(outputs, problems: Problems):
    files = outputs["enumerate"]
    rows = csv_rows(files["atlas.csv"])
    problems.require(
        "enumerate", len(rows) == ATLAS_LEAVES, f"{len(rows)} leaf rows, expected {ATLAS_LEAVES}"
    )
    total = math.fsum(float(row[3]) for row in rows)
    problems.require(
        "enumerate", abs(total - 1) <= PROBABILITY_SUM_TOL, f"leaf probabilities sum to {total!r}"
    )
    leaves = {(int(r[0]), int(r[1]), int(r[2])): r for r in rows}
    for key, (fid, prob, delta) in TABLE_1.items():
        row = leaves.get(key)
        problems.require("enumerate", row is not None, f"Table 1 row {key} missing")
        if row is None:
            continue
        problems.reference("enumerate", f"Table 1 {key} fidelity", float(row[5]), fid, FIDELITY_TOL)
        problems.require(
            "enumerate",
            abs(float(row[4]) - prob) <= AGGREGATED_PROBABILITY_TOL,
            f"Table 1 {key} aggregated probability {row[4]} vs {prob}",
        )
        problems.require(
            "enumerate",
            abs(float(row[6]) - delta) <= SQUEEZING_TOL,
            f"Table 1 {key} effective squeezing {row[6]} vs {delta}",
        )
    # Both curves lose probability as the requirement tightens: a higher
    # fidelity threshold, or a lower squeezing bound.
    fid_curve = [float(r[1]) for r in csv_rows(files["atlas_fidelity_curve.csv"])]
    squeeze_curve = [float(r[1]) for r in csv_rows(files["atlas_squeezing_curve.csv"])]
    problems.require(
        "enumerate",
        bool(fid_curve) and all(b <= a for a, b in zip(fid_curve, fid_curve[1:])),
        "fidelity curve increases with the threshold",
    )
    problems.require(
        "enumerate",
        bool(squeeze_curve) and all(b >= a for a, b in zip(squeeze_curve, squeeze_curve[1:])),
        "squeezing curve decreases with the bound",
    )


def check_ladder(outputs, problems: Problems):
    fidelities = {}
    for dim in LADDER_DIMS:
        name = f"chain-dim{dim}"
        records = json.loads(outputs[name][f"chain_dim{dim}.json"])["records"]
        problems.require(name, len(records) == len(CHAIN_SCHEDULE) + 1, f"{len(records)} records")
        fidelities[dim] = {r["iterations"]: r["fidelity"] for r in records}
        if dim != LADDER_DIMS[0]:
            continue
        for k, (fid, prob) in TABLE_3.items():
            record = records[k]
            problems.reference(name, f"Table 3 k={k} fidelity", record["fidelity"], fid, FIDELITY_TOL)
            log_aggregated = record["log_probability"] + (2**k - 1) * math.log(2)
            problems.require(
                name,
                abs(log_aggregated - math.log(prob)) <= LOG_PROBABILITY_REL_TOL * abs(math.log(prob)),
                f"Table 3 k={k} ln P {log_aggregated:.4g} vs {math.log(prob):.4g}",
            )
    base = fidelities[LADDER_DIMS[0]]
    odd_spread = 0.0
    for dim in LADDER_DIMS[1:]:
        for k in range(1, len(CHAIN_SCHEDULE) + 1):
            shift = abs(fidelities[dim][k] - base[k])
            if k % 2:
                # The truncation effect; recorded, not gated.
                odd_spread = max(odd_spread, shift)
            else:
                problems.require(
                    f"chain-dim{dim}",
                    shift <= FIDELITY_TOL,
                    f"k={k} fidelity moved {shift:.3g} from dim {LADDER_DIMS[0]}",
                )
    problems.notes["ladder_odd_k_fidelity_spread"] = odd_spread


def check_survey(outputs, problems: Problems):
    sweep = {
        (r[0], r[1], r[2], int(r[3])): float(r[4]) for r in csv_rows(outputs["sweep"]["sweep.csv"])
    }
    for iteration, fid in SWEEP_REFERENCE.items():
        value = sweep.get(("0.4", "2", "3", iteration))
        problems.require("sweep", value is not None, f"no sweep row for (2, 3) at {iteration}")
        if value is not None:
            problems.reference("sweep", f"sweep (2, 3) iteration {iteration}", value, fid, FIDELITY_TOL)
    for name in ("wigner-input", "wigner-target", "wigner-chain"):
        (data,) = outputs[name].values()
        integral = wigner_integral(matrix(data))
        problems.require(
            name, abs(integral - 1) <= WIGNER_INTEGRAL_TOL, f"Wigner integral {integral:.6g}"
        )
    for name in ("distribution", "distribution-conditioned"):
        (data,) = outputs[name].values()
        total = math.fsum(float(r[3]) for r in csv_rows(data))
        problems.require(
            name, abs(total - 1) <= DISTRIBUTION_SUM_TOL, f"probabilities sum to {total!r}"
        )


CHECKS = {"atlas": check_atlas, "ladder": check_ladder, "survey": check_survey}
WORKLOADS = tuple(CHECKS)


def check(workload: str, outputs) -> Problems:
    """Check one repetition's outputs; unreadable outputs are problems too."""
    problems = Problems()
    try:
        CHECKS[workload](outputs, problems)
    except (KeyError, IndexError, ValueError, TypeError) as exc:
        for name in outputs:
            problems.require(name, False, f"unreadable output: {type(exc).__name__}: {exc}")
    return problems
