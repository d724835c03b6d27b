import contextlib
import io
import json
import math
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import qpbreed
from qpbreed import fock
from qpbreed import (
    FockConfig,
    QunaughtParams,
    breed_step,
    default_input,
    effective_squeezing_curve,
    enumerate_two_iterations,
    probability_fidelity_curve,
    qunaught_state,
    sign_aggregated,
    wigner,
)
from qpbreed.cli import (
    _FIELDS,
    COMMANDS,
    DEFAULT_FIDELITY_THRESHOLDS,
    DEFAULT_SQUEEZING_BOUNDS,
    EXIT_CONFIG,
    EXIT_NUMERICAL,
    EXIT_OK,
    READS,
    RunConfig,
    _build_parser,
    _matrix_lines,
    _read_config_file,
    _resolve_config,
    _sibling_path,
    main,
)
from qpbreed.metrics import default_grid

from oracles import whole_sector_mix


def run_cli(args):
    return main(args)


def test_distribution_default(tmp_path, capsys):
    out = tmp_path / "dist.csv"
    assert run_cli(["distribution", "--output-path", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema_version=2"
    assert any(line.startswith("# config dim=50") for line in lines)
    header_end = next(i for i, line in enumerate(lines) if not line.startswith("#"))
    assert lines[header_end] == "index,eigenvalue,rescaled_outcome,probability,label"
    rows = [line.split(",") for line in lines[header_end + 1 :]]
    assert len(rows) == 50
    labeled = {row[4]: int(row[0]) for row in rows if row[4]}
    assert labeled["C"] == 24
    assert labeled["S1"] == 19
    assert labeled["S2"] == 18
    # max-probability negative-side index is the central peak
    neg = [row for row in rows if float(row[1]) < 0]
    best = max(neg, key=lambda row: float(row[3]))
    assert int(best[0]) == 24
    assert abs(float(best[2]) + 0.062) < 1e-3


def test_distribution_conditioned_labels_s_peak(tmp_path):
    out = tmp_path / "dist.csv"
    assert run_cli(["distribution", "--postselect", "C,C", "--output-path", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    labeled = {row[4]: int(row[0]) for row in rows if row[4]}
    assert labeled["S"] == 17
    total = sum(float(row[3]) for row in rows)
    assert total == pytest.approx(1.0, abs=1e-9)


def test_distribution_output_deterministic(tmp_path):
    out = tmp_path / "a.csv"
    run_cli(["distribution", "--output-path", str(out)])
    first = out.read_bytes()
    run_cli(["distribution", "--output-path", str(out)])
    assert out.read_bytes() == first


def test_chain_json_report(tmp_path):
    out = tmp_path / "chain.json"
    code = run_cli(
        [
            "chain",
            "--schedule",
            "pq",
            "--postselect",
            "C,C",
            "--output-path",
            str(out),
        ]
    )
    assert code == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 2
    assert payload["config"]["dim"] == 50
    records = payload["records"]
    assert [r["iterations"] for r in records] == [0, 1, 2]
    assert records[0]["fidelity"] == pytest.approx(0.941, abs=2e-3)
    assert records[2]["fidelity"] == pytest.approx(0.9848, abs=2e-3)
    assert records[2]["aggregated_probability"] == pytest.approx(0.0134, abs=5e-4)


def test_chain_postselect_indices(tmp_path):
    out = tmp_path / "chain.json"
    assert (
        run_cli(
            ["chain", "--schedule", "qp", "--postselect", "24,24", "--output-path", str(out)]
        )
        == EXIT_OK
    )
    payload = json.loads(out.read_text())
    assert payload["records"][2]["fidelity"] == pytest.approx(0.9834, abs=2e-3)


def test_chain_starts_from_given_binomial_input(tmp_path, capsys):
    from qpbreed import BinomialParams, FockConfig, binomial_state, default_target, fidelity

    out = tmp_path / "chain.json"
    args = ["chain", "--schedule", "qp", "--postselect", "C,C", "--output-path", str(out)]
    assert run_cli(args + ["--n", "3", "--k", "4"]) == EXIT_OK
    records = json.loads(out.read_text())["records"]
    cfg = FockConfig()
    expected = fidelity(binomial_state(cfg, BinomialParams(3, 4)), default_target(cfg))
    assert records[0]["fidelity"] == expected
    # (N=9, K=9) occupies Fock level 72, outside dim 50
    assert run_cli(args + ["--n", "9", "--k", "9"]) == EXIT_CONFIG
    assert "outside dim 50" in capsys.readouterr().err
    wigner = ["wigner", "--schedule", "qp", "--postselect", "C,C", "--n", "9", "--k", "9"]
    assert run_cli(wigner + ["--output-path", str(tmp_path / "w.csv")]) == EXIT_CONFIG


def test_warning_is_one_stderr_line(tmp_path, capsys):
    # the effective squeezing probe is exact at every dim, so a dim-6 chain
    # warns of nothing: a refused outcome is its one stderr line, and a run
    # that succeeds writes none; the dim-6 probe is built in this run
    from qpbreed.metrics import _probe

    _probe.cache_clear()
    chain = ["chain", "--dim", "6", "--schedule", "q", "--output-path", str(tmp_path / "chain.json")]
    assert run_cli(chain + ["--postselect", "S1"]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1
    assert err[0].startswith("error: level 1: post-selection token 'S1'")
    assert run_cli(chain) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_enumerate_fold_warning_is_one_stderr_line(tmp_path, capsys):
    # the fold, the target and the probe are exact at every dim, so
    # enumerate at dim 12 writes nothing to stderr
    out = tmp_path / "enum.csv"
    assert run_cli(["enumerate", "--dim", "12", "--output-path", str(out)]) == EXIT_OK
    assert capsys.readouterr().err == ""


def test_enumerate_small_dim(tmp_path):
    # at dim 10 the second step reaches the cut sectors: the leaves sum to
    # the weight that the exact beamsplitter keeps in the box, 0.922141
    out = tmp_path / "enum.csv"
    assert run_cli(["enumerate", "--dim", "10", "--output-path", str(out)]) == EXIT_OK
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == "q1,q2,p,probability,aggregated_probability,fidelity,effective_squeezing"
    assert len(rows) - 1 == 10**3
    total = sum(float(line.split(",")[3]) for line in rows[1:])
    cfg = FockConfig(10)
    probs, posts = breed_step(default_input(cfg), default_input(cfg), "q", cfg)
    in_box = sum(
        probs[i] * probs[j] * np.sum(np.abs(whole_sector_mix(posts[i], posts[j])[:10, :10]) ** 2)
        for i in range(10)
        for j in range(10)
    )
    assert total == pytest.approx(in_box, abs=1e-8)
    assert total == pytest.approx(0.922141, abs=1e-6)
    assert (tmp_path / "enum_fidelity_curve.csv").exists()
    assert (tmp_path / "enum_squeezing_curve.csv").exists()


@pytest.mark.parametrize("dim", [19, 20])
def test_enumerate_rows_are_the_per_row_format(tmp_path, capsys, dim):
    # the CLI formats each canonical leaf once and gathers its text; every
    # row must still read as the %-format of that leaf's own values
    probability, fid, delta = enumerate_two_iterations(FockConfig(dim))
    indices = np.indices(probability.shape)
    mirrored = np.sum(2 * indices != dim - 1, axis=0)  # measurements with a distinct mirror outcome
    columns = [*indices, probability, sign_aggregated(probability, mirrored), fid, delta]
    expected = [
        "%d,%d,%d,%.12g,%.12g,%.12g,%.12g" % row
        for row in zip(*(column.ravel().tolist() for column in columns))
    ]
    out = tmp_path / "enum.csv"
    assert run_cli(["enumerate", "--dim", str(dim), "--output-path", str(out)]) == EXIT_OK
    assert run_cli(["enumerate", "--dim", str(dim), "--output-path", "-"]) == EXIT_OK
    for text in (out.read_text(), capsys.readouterr().out):
        lines = text.splitlines()
        start = lines.index("q1,q2,p,probability,aggregated_probability,fidelity,effective_squeezing") + 1
        assert lines[start : start + dim**3] == expected


@pytest.mark.parametrize("dim", [19, 20])
def test_enumerate_curves_are_the_curves_of_every_leaf(tmp_path, dim):
    # the CLI sums orbit-weighted canonical leaves; the curves must be those
    # of the whole table
    probability, fid, delta = enumerate_two_iterations(FockConfig(dim))
    expected = {
        "fidelity_curve": probability_fidelity_curve(probability, fid, DEFAULT_FIDELITY_THRESHOLDS),
        "squeezing_curve": effective_squeezing_curve(probability, delta, DEFAULT_SQUEEZING_BOUNDS),
    }
    out = tmp_path / "e.csv"
    assert run_cli(["enumerate", "--dim", str(dim), "--output-path", str(out)]) == EXIT_OK
    for suffix, points in expected.items():
        lines = (tmp_path / f"e_{suffix}.csv").read_text().splitlines()
        data = [line for line in lines if not line.startswith("#")][1:]
        rows = [tuple(map(float, line.split(","))) for line in data]
        assert [row[0] for row in rows] == [point[0] for point in points]
        assert [row[1] for row in rows] == pytest.approx([point[1] for point in points], rel=1e-11)


def test_enumerate_over_budget_exits_before_the_target(monkeypatch, capsys):
    def unbuilt(cfg):
        raise AssertionError("the target was built for a refused enumeration")

    monkeypatch.setattr(RunConfig, "target", unbuilt)
    # 127³ = 2,048,383 leaves, just over the budget
    assert run_cli(["enumerate", "--dim", "127"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "over the budget of 2000000" in err and "Traceback" not in err


@pytest.mark.parametrize(
    "args, cut_sectors",
    [
        (["distribution"], 0),
        (["distribution", "--postselect", "C,S2"], 0),
        (["enumerate"], 0),
        (["chain", "--schedule", "pqpqpqpq", "--postselect", "C,C,C,C,C,C,C,C"], 49),
        (["sweep", "--schedule", "pqpq"], 49),
        (["wigner", "--schedule", "qp", "--postselect", "C,S"], 0),
    ],
)
def test_cut_sectors_are_built_only_for_states_that_reach_them(tmp_path, args, cut_sectors):
    # at dim 50 the default input (top level 4) reaches 8 photons after one
    # breeding step, 16 after two and 64 after four: only the chain's fourth
    # level needs the dim − 1 = 49 cut sectors t ≥ dim, which each build of
    # fock.beamsplitter writes
    fock.beamsplitter.cache_clear()
    assert run_cli([*args, "--dim", "50", "--output-path", str(tmp_path / "out.csv")]) == EXIT_OK
    assert fock.beamsplitter.cache_info().misses * 49 == cut_sectors


@pytest.mark.parametrize(
    "args, written",
    [
        (["distribution"], 9),
        (["distribution", "--postselect", "C,S2"], 17),
        (["enumerate"], 17),
        (["wigner", "--schedule", "qp", "--postselect", "C,S"], 17),
        (["chain", "--schedule", "pqpqpqpq", "--postselect", "C,C,C,C,C,C,C,C"], 99),
    ],
)
def test_whole_sectors_are_built_only_as_far_as_states_reach(tmp_path, args, written):
    # at dim 50 the default input (top level 4) bred with itself fills the
    # sectors t ≤ 8 of the corner w = 9, and two of its posts (top level 8)
    # those of the corner 17: the whole sectors t < w are built, and the
    # chain's fourth level, which needs the full width, builds all
    # 2·50 − 1 = 99, the 50 whole ones and then the 49 cut ones
    fock._sector_store.cache_clear()
    fock.beamsplitter.cache_clear()
    assert run_cli([*args, "--dim", "50", "--output-path", str(tmp_path / "out.csv")]) == EXIT_OK
    assert fock._sector_store(50).written == written


def test_enumerate_measures_the_kept_p_outcomes_and_scores_the_occupied_corner(
    tmp_path, monkeypatch
):
    # at dim 40 the fold keeps the first 20 p outcomes, and two first-level
    # posts (top level 8) give second-level posts within the corner w = 17:
    # every p projection is onto those 20 outcomes alone, and δ is scored on
    # stacks of width 17
    from qpbreed import protocol

    widths, p_outcomes = set(), set()
    squeeze, project = protocol.effective_squeezing, protocol.projection_amplitudes

    def scored(cfg, state, direction="q"):
        widths.add(state.shape[-1])
        return squeeze(cfg, state, direction)

    def projected(state2, basis, *outcomes):
        amplitudes = project(state2, basis, *outcomes)
        if basis.axis == "p":
            p_outcomes.add(amplitudes.shape[-2])
        return amplitudes

    monkeypatch.setattr(protocol, "effective_squeezing", scored)
    monkeypatch.setattr(protocol, "projection_amplitudes", projected)
    assert run_cli(["enumerate", "--dim", "40", "--output-path", str(tmp_path / "out.csv")]) == EXIT_OK
    assert widths == {17}
    assert p_outcomes == {20}


def test_cli_sends_only_real_arrays_to_the_kernels(tmp_path, monkeypatch):
    # a state bred with itself stays real at every level, and a p
    # measurement turns complex only the post of two different arms, which
    # no command breeds further or draws: every array the CLI hands the
    # beamsplitter, the homodyne projection and the Wigner sum is float64,
    # whose complex paths are covered by the library tests alone
    import qpbreed.cli as cli
    from qpbreed import protocol

    seen = {}

    def record(module, name):
        kernel = getattr(module, name)

        def recorded(*args):
            seen.setdefault(name, set()).update(a.dtype for a in args if isinstance(a, np.ndarray))
            return kernel(*args)

        monkeypatch.setattr(module, name, recorded)

    record(protocol, "apply_beamsplitter")
    record(protocol, "projection_amplitudes")
    record(cli, "wigner")
    for args in (
        ["chain", "--schedule", "pqpqpqpq", "--postselect", "C,C,C,C,C,C,C,C", "--dim", "30"],
        ["sweep", "--schedule", "pqpq"],
        ["wigner", "--schedule", "qp", "--postselect", "S2,C"],
        ["wigner", "--n", "0"],
        ["distribution", "--schedule", "pp", "--postselect", "S,S"],
        ["enumerate", "--dim", "10"],
    ):
        assert run_cli([*args, "--output-path", str(tmp_path / "out.csv")]) == EXIT_OK
    kernels = ("apply_beamsplitter", "projection_amplitudes", "wigner")
    assert seen == {name: {np.dtype(np.float64)} for name in kernels}


def test_aggregated_probability_counts_only_outcomes_with_a_distinct_mirror(tmp_path):
    # at an odd dim the middle outcome, index (dim − 1)/2, is its own mirror
    # and adds no factor 2
    out = tmp_path / "chain.json"
    args = ["chain", "--dim", "51", "--schedule", "qpq", "--postselect", "25,C,25"]
    assert run_cli([*args, "--output-path", str(out)]) == EXIT_OK
    records = json.loads(out.read_text())["records"]
    assert records[1]["outcome_path"] == [[1, 25]]
    assert records[1]["aggregated_probability"] == records[1]["probability"]
    # of the 2² + 2 + 1 measurements only the 2 of level 2 (C = 24) have a
    # distinct mirror, so m = 2
    assert records[3]["outcome_path"] == [[1, 25], [2, 24], [3, 25]]
    log_probability = records[3]["log_probability"]
    assert records[3]["aggregated_probability"] == math.exp(log_probability + 2 * math.log(2))
    # one leaf per mirror class, each counted with its mirror images, sums to 1
    out = tmp_path / "enum.csv"
    assert run_cli(["enumerate", "--dim", "17", "--output-path", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    total = sum(float(row[4]) for row in rows if all(int(i) < 9 for i in row[:3]))
    assert total == pytest.approx(1.0, abs=1e-12)


def test_sibling_path_keeps_directories():
    assert _sibling_path("out/leaves.csv", "fidelity_curve") == "out/leaves_fidelity_curve.csv"
    assert _sibling_path("run.v2/leaves", "fidelity_curve") == "run.v2/leaves_fidelity_curve"
    assert _sibling_path("-", "fidelity_curve") == "-"


def test_sweep_emits_both_targets(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--schedule", "pq", "--output-path", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    deltas = {row[0] for row in rows}
    assert deltas == {"0.4", "0.35"}
    pairs = {(int(row[1]), int(row[2])) for row in rows}
    assert (2, 3) in pairs and (4, 7) in pairs


def test_chain_record_and_sweep_header_are_pinned(tmp_path):
    # both layouts are built from the BranchResult and SweepRecord fields; a
    # new field must not change them unless this test and SCHEMA_VERSION do
    out = tmp_path / "chain.json"
    assert run_cli(["chain", "--dim", "20", "--output-path", str(out)]) == EXIT_OK
    payload = json.loads(out.read_text())
    assert payload["schema_version"] == 2
    for k, record in enumerate(payload["records"]):
        assert set(record) == {
            "iterations",
            "outcome_path",
            "log_probability",
            "probability",
            "aggregated_probability",
            "fidelity",
            "effective_squeezing_q",
            "effective_squeezing_p",
        }
        assert record["iterations"] == k
        assert len(record["outcome_path"]) == k
        for step in record["outcome_path"]:
            assert isinstance(step, list) and len(step) == 2
            assert all(isinstance(value, int) for value in step)
        log_probability = record["log_probability"]
        assert record["probability"] == math.exp(log_probability)
        aggregated = math.exp(log_probability + (2**k - 1) * math.log(2))
        assert record["aggregated_probability"] == aggregated
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--dim", "20", "--output-path", str(out)]) == EXIT_OK
    lines = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert lines[0] == "target_delta,N,K,iteration,fidelity,supported"
    assert {line.rsplit(",", 1)[1] for line in lines[1:]} <= {"true", "false"}


def test_wigner_matrix_text(tmp_path):
    out = tmp_path / "wigner.csv"
    assert run_cli(["wigner", "--dim", "30", "--output-path", str(out)]) == EXIT_OK
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 201
    assert len(rows[0].split(",")) == 201


@pytest.mark.parametrize("shape", [(1, 1), (1, 2), (2, 1), (4, 5), (5, 4), (5, 5)])
def test_matrix_lines_format_mirrored_rows_once(shape):
    # rows that repeat their mirror row and rows that are their own reverse
    # are formatted from a part of the matrix; the text is the plain text,
    # signed zeros and nan included
    rng = np.random.default_rng(shape[0] * 10 + shape[1])
    plain = rng.normal(size=shape)
    mirrored = plain + plain[::-1]
    mirrored += mirrored[:, ::-1]
    signed = mirrored.copy()
    signed[0, 0], signed[0, -1] = 0.0, -0.0
    signed[-1, :] = signed[0, ::-1]
    signed[shape[0] // 2, shape[1] // 2] = np.nan
    for values in (plain, mirrored, signed):
        expected = [",".join("%.12g" % cell for cell in row) + "\n" for row in values]
        assert _matrix_lines(values) == expected


def test_wigner_text_is_the_grid_to_12_digits(tmp_path):
    out = tmp_path / "wigner.csv"
    assert run_cli(["wigner", "--n", "0", "--dim", "20", "--output-path", str(out)]) == EXIT_OK
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    values = np.array([[float(cell) for cell in row.split(",")] for row in rows])
    axis = default_grid()
    grid = wigner(qunaught_state(FockConfig(20), QunaughtParams(0.4)), axis, axis)
    np.testing.assert_allclose(values, grid, rtol=1e-11, atol=1e-16)
    np.testing.assert_array_equal(values, values[::-1, ::-1])


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("dim=20\nschedule=pq\n# comment\n")
    out = tmp_path / "dist.csv"
    code = run_cli(
        ["distribution", "--config", str(cfg_file), "--dim", "24", "--output-path", str(out)]
    )
    assert code == EXIT_OK
    text = out.read_text()
    assert "# config dim=24" in text  # flag wins
    assert "# config schedule=pq" in text  # file applies


def test_config_error_exit_code(capsys):
    assert run_cli(["distribution", "--dim", "1"]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err
    assert run_cli(["distribution", "--schedule", "xy"]) == EXIT_CONFIG
    capsys.readouterr()
    assert run_cli(["distribution", "--schedule", "qpq", "--postselect", "C,C,C"]) == EXIT_CONFIG
    assert "conditioned distribution needs exactly two postselect tokens" in capsys.readouterr().err
    # the extent of the peak sum follows from dim and delta and is no setting
    assert run_cli(["chain", "--schedule", "qp", "--t-max", "20"]) == EXIT_CONFIG
    assert "unrecognized arguments: --t-max 20" in capsys.readouterr().err
    assert run_cli(["chain", "--schedule", "qp", "--delta-target", "1.5"]) == EXIT_CONFIG
    assert "delta-target must be in (0, 1), got 1.5" in capsys.readouterr().err
    assert run_cli(["chain", "--schedule", "qp", "--postselect", "24"]) == EXIT_CONFIG
    assert run_cli(["chain", "--schedule", "qp", "--postselect", "99,24"]) == EXIT_CONFIG
    assert run_cli(["chain", "--schedule", "qp", "--postselect", "S9,C"]) == EXIT_CONFIG
    capsys.readouterr()
    # a signed zero and the Arabic-Indic digits ٢٤ (24) are no outcome index
    for token in ("-0", "-00", "\u0662\u0664"):
        assert run_cli(["chain", "--schedule", "q", "--postselect", token]) == EXIT_CONFIG
        assert f"post-selection token {token!r} is not an index" in capsys.readouterr().err


@pytest.mark.parametrize(
    "args",
    [
        ["wigner", "--n", "0", "--k", "-5"],  # the target sentinel builds no binomial input
        ["wigner", "--n", "0", "--k", "0"],
        ["wigner", "--k", "0"],
        ["chain", "--schedule", "q", "--k", "0"],
        ["distribution", "--k", "-1"],
    ],
)
def test_k_below_one_is_refused_by_every_command_that_reads_it(tmp_path, capsys, args):
    out = tmp_path / "out.csv"
    assert run_cli(args + ["--output-path", str(out)]) == EXIT_CONFIG
    assert f"K must be at least 1, got {args[-1]}" in capsys.readouterr().err
    assert not out.exists()


def test_k_of_one_is_accepted(tmp_path):
    out = tmp_path / "target.csv"
    args = ["wigner", "--n", "0", "--k", "1", "--dim", "13", "--output-path", str(out)]
    assert run_cli(args) == EXIT_OK
    assert "# config K=1" in out.read_text().splitlines()


def test_unwritable_output_path_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    assert run_cli(["chain", "--schedule", "q", "--output-path", str(missing)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err
    assert run_cli(["distribution", "--output-path", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "Traceback" not in err


def test_runs_without_scipy(tmp_path):
    # scipy is a test-only dependency: the package must run with it unimportable
    src = str(Path(qpbreed.__file__).parents[1])
    for args in (
        ["chain", "--schedule", "qp", "--dim", "13", "--output-path", str(tmp_path / "c.json")],
        ["wigner", "--n", "0", "--dim", "13", "--output-path", str(tmp_path / "w.csv")],
    ):
        script = (
            f"import sys; sys.modules['scipy'] = None; sys.path.insert(0, {src!r})\n"
            f"from qpbreed.cli import main; sys.exit(main({args!r}))"
        )
        result = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True)
        assert result.returncode == EXIT_OK, result.stderr


def test_bad_config_file(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dim 50\n")
    assert run_cli(["distribution", "--config", str(bad)]) == EXIT_CONFIG
    missing = tmp_path / "missing.cfg"
    assert run_cli(["distribution", "--config", str(missing)]) == EXIT_CONFIG


def test_config_file_that_is_not_utf8_is_named(tmp_path, capsys):
    latin1 = tmp_path / "latin1.cfg"
    latin1.write_bytes("dim=20\n# café\n".encode("latin-1"))
    assert run_cli(["chain", "--config", str(latin1)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot read config file {latin1}: ") and "Traceback" not in err


def test_config_file_with_a_byte_order_mark_reads_as_without(tmp_path):
    plain, bom = tmp_path / "plain.cfg", tmp_path / "bom.cfg"
    plain.write_text("dim=20\nschedule=pq\n", encoding="utf-8")
    bom.write_text("dim=20\nschedule=pq\n", encoding="utf-8-sig")
    assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
    configs = [
        _resolve_config(_build_parser().parse_args(["chain", "--config", str(path)]))
        for path in (plain, bom)
    ]
    assert configs[0] == configs[1]
    assert configs[0].dim == 20 and configs[0].schedule == "pq"


def test_oversized_dim_exits_before_any_array(monkeypatch, capsys):
    def unbuilt(cfg):
        raise AssertionError("a Fock space was built for a refused dim")

    monkeypatch.setattr(RunConfig, "fock", unbuilt)
    for command in COMMANDS:
        assert run_cli([command, "--dim", "1000000000"]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: dim 1000000000 is too large") and "Traceback" not in err
    RunConfig(dim=645).validate()
    with pytest.raises(ValueError, match="dim 646 is too large"):
        RunConfig(dim=646).validate()


def test_conditioned_distribution_underflow_is_a_numerical_failure(tmp_path, monkeypatch, capsys):
    import qpbreed.cli as cli

    real = cli.breed_step

    def starved(left, right, axis, inner_cfg):
        probs, posts = real(left, right, axis, inner_cfg)
        return np.zeros_like(probs), np.zeros_like(posts)

    monkeypatch.setattr(cli, "breed_step", starved)
    out = tmp_path / "d.csv"
    for tokens in ("C,C", "24,19"):
        args = ["distribution", "--postselect", tokens, "--output-path", str(out)]
        assert run_cli(args) == EXIT_NUMERICAL
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: selected outcome 24 has probability 0.000e+00")
        assert "Traceback" not in err
    assert not out.exists()


def test_numerical_failure_exit_code(monkeypatch):
    import qpbreed.cli as cli
    from qpbreed.numerics import NumericalError

    def boom(cfg):
        """Synthetic numerical failure."""
        raise NumericalError("synthetic failure")

    monkeypatch.setitem(cli.COMMANDS, "distribution", boom)
    assert run_cli(["distribution"]) == cli.EXIT_NUMERICAL


def test_eigensolver_failure_exit_code(tmp_path, monkeypatch, capsys):
    # the eigensolve runs on a dim's first basis, so none may be cached
    def unconverged(matrix):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigh", unconverged)
    qpbreed.quadrature_basis.cache_clear()
    out = tmp_path / "d.csv"
    assert run_cli(["distribution", "--dim", "23", "--output-path", str(out)]) == EXIT_NUMERICAL
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: tridiagonal eigensolver did not converge")
    assert "Traceback" not in err
    assert not out.exists()


def test_memory_error_exit_code(monkeypatch, capsys):
    import qpbreed.cli as cli

    def hungry(cfg):
        """Synthetic allocation failure."""
        raise MemoryError("Unable to allocate 13.4 GiB")

    monkeypatch.setitem(cli.COMMANDS, "distribution", hungry)
    assert run_cli(["distribution", "--dim", "600"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: dim=600 ") and "13.4 GiB" in err
    assert "Traceback" not in err


#: One value per RunConfig field, each different from the default and quick
#: to run, at dim 16 unless the value is the dim, with every command that
#: reads it.
SAMPLES = {
    "dim": "14",
    "delta_target": "0.35",
    "N": "3",
    "K": "4",
    "schedule": "pq",
    "postselect": "C,C",
    "output_path": "out.csv",
}


@pytest.mark.parametrize("field", list(_FIELDS))
def test_config_file_and_flags_agree(tmp_path, field):
    raw = SAMPLES[field]
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text(f"{field}={raw}\n")
    flag = "--" + field.lower().replace("_", "-")
    by_flag = _resolve_config(_build_parser().parse_args(["chain", flag, raw]))
    by_file = _resolve_config(_build_parser().parse_args(["chain", "--config", str(cfg_file)]))
    assert by_flag == by_file
    assert getattr(by_flag, field) != getattr(RunConfig(), field)


def test_read_config_file_kebab_keys(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("delta-target=0.4\noutput-path=out.csv\n")
    values = _read_config_file(str(f))
    assert values == {"delta_target": "0.4", "output_path": "out.csv"}


def test_runconfig_validation():
    cfg = RunConfig(delta_target=1.5)
    with pytest.raises(ValueError):
        cfg.validate()


def test_each_command_reads_27_settings_in_all():
    assert sum(len(fields) for fields in READS.values()) == 27
    assert READS["enumerate"] == {"dim", "delta_target", "output_path"}
    assert READS["sweep"] == {"dim", "delta_target", "schedule", "output_path"}


def _echoed(path):
    """The settings an output echoes, as text: the chain JSON's config
    object, or a CSV's ``# config`` lines."""
    text = path.read_text()
    if text.startswith("{"):
        payload = json.loads(text)
        assert payload["schema_version"] == 2
        return {key: str(value) for key, value in payload["config"].items()}
    lines = text.splitlines()
    assert lines[0] == "# schema_version=2"
    pairs = [line[len("# config ") :].partition("=") for line in lines if line.startswith("# config ")]
    return {key: value for key, _, value in pairs}


@pytest.mark.parametrize("by", ["flag", "config"])
@pytest.mark.parametrize("field", list(_FIELDS))
@pytest.mark.parametrize("command", list(COMMANDS))
def test_command_takes_only_the_fields_it_reads(tmp_path, capsys, command, field, by):
    out = tmp_path / "base.txt"
    settings = {"dim": "16", "output_path": str(out)}
    raw = str(tmp_path / SAMPLES[field]) if field == "output_path" else SAMPLES[field]
    if by == "flag":
        settings[field] = raw
        args = []
    else:
        settings.pop(field, None)
        (tmp_path / "run.cfg").write_text(f"{field}={raw}\n")
        args = ["--config", str(tmp_path / "run.cfg")]
    for key, value in settings.items():
        args += ["--" + key.lower().replace("_", "-"), value]
    code = main([command, *args])
    err = capsys.readouterr().err
    if field not in READS[command]:
        assert code == EXIT_CONFIG
        named = "--" + field.lower().replace("_", "-") if by == "flag" else repr(field)
        assert named in err and "Traceback" not in err
        return
    assert code == EXIT_OK, err
    echoed = _echoed(tmp_path / SAMPLES[field] if field == "output_path" else out)
    assert set(echoed) == READS[command]
    assert echoed[field] == raw


def test_argparse_exits_become_return_codes(capsys):
    assert main(["chain", "--help"]) == EXIT_OK
    assert main(["nosuchcommand"]) == EXIT_CONFIG
    assert main(["chain", "--dim", "many"]) == EXIT_CONFIG
    assert "--dim" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["--help"], ["chain", "--help"], ["chian"], [], ["chain", "--bogus", "1"], ["wigner", "--dim"]],
)
def test_cli_surface_is_that_of_the_parser_with_every_command(capsys, argv):
    # a command's run builds its own subparser alone: its help, its errors
    # and an unknown or missing command print the bytes, and give the exit
    # code, of the parser with all five
    code = main(argv)
    printed = capsys.readouterr()
    with pytest.raises(SystemExit) as exc:
        _build_parser().parse_args(argv)
    assert code == exc.value.code
    assert printed == capsys.readouterr()
    if argv == ["chian"]:
        assert code == EXIT_CONFIG
        assert "invalid choice: 'chian' (choose from " + ", ".join(map(repr, COMMANDS)) in printed.err


#: Post-selection tokens: indices in and out of range at dims 2-12, peak
#: labels and their mirrors, and junk.
TOKENS = st.one_of(
    st.integers(-2, 13).map(str),
    st.sampled_from(["C", "S1", "S2", "S", "mirror-C", "mirror-S1", "mirror-S", "S9"]),
    st.sampled_from(["x", "-", "--1", " 3", "\u00b2", "1e1", "C C"]),
)

#: Config-file lines, good and bad; the flags drawn beside them override them.
CONFIG_LINES = st.sampled_from(
    [
        "N=0", "N=3", "N=-1", "K=0", "K=1", "K=4", "N=two", "schedule=pq", "postselect=C,C",
        "delta_target=0.3", "dim=1", "# comment", "", "dim", "=", "nokey=1", "Postselect=C",
    ]
)


@settings(max_examples=60, deadline=None)
@given(
    command=st.sampled_from(sorted(COMMANDS)),
    dim=st.integers(2, 12),
    schedule=st.none() | st.text("qpx", max_size=4),
    tokens=st.none() | st.lists(TOKENS, max_size=4),
    delta=st.none() | st.sampled_from(["0.4", "0.2", "0.01", "0", "1", "nan", "inf", "-0.3", "x"]),
    lines=st.lists(CONFIG_LINES, max_size=3),
)
def test_cli_failures_are_exit_codes(command, dim, schedule, tokens, delta, lines):
    """Whatever the settings, a command succeeds, is refused as a
    configuration error, or fails numerically: never a traceback."""
    flags = {"schedule": schedule, "delta_target": delta}
    flags["postselect"] = None if tokens is None else ",".join(tokens)
    with tempfile.TemporaryDirectory() as tmp:
        args = [command, "--dim", str(dim), "--output-path", str(Path(tmp) / "out.txt")]
        for field, value in flags.items():
            if value is not None and field in READS[command]:
                args += ["--" + field.replace("_", "-"), value]
        if lines:
            (Path(tmp) / "run.cfg").write_text("\n".join(lines) + "\n")
            args += ["--config", str(Path(tmp) / "run.cfg")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(args)
    assert code in (EXIT_OK, EXIT_CONFIG, EXIT_NUMERICAL), (args, err.getvalue())
    assert "Traceback" not in err.getvalue()
