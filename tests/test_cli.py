import json

import pytest

from qpbreed.cli import (
    EXIT_CONFIG,
    EXIT_OK,
    RunConfig,
    _read_config_file,
    _resolve_config,
    main,
)


def run_cli(args):
    return main(args)


def test_distribution_default(tmp_path, capsys):
    out = tmp_path / "dist.csv"
    assert run_cli(["distribution", "--output-path", str(out)]) == EXIT_OK
    lines = out.read_text().splitlines()
    assert lines[0] == "# schema_version=1"
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
    assert payload["schema_version"] == 1
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
    from qpbreed.metrics import _probe

    _probe.cache_clear()  # the dim-6 probe must be built, and warn, in this run
    out = tmp_path / "chain.json"
    args = ["chain", "--schedule", "q", "--postselect", "S1", "--dim", "6"]
    assert run_cli(args + ["--output-path", str(out)]) == EXIT_CONFIG
    err = capsys.readouterr().err.splitlines()
    warning_lines = [line for line in err if line.startswith("warning: ")]
    assert len(warning_lines) == 1
    assert "below dim 13" in warning_lines[0]
    assert not any("op =" in line for line in err)


def test_enumerate_small_dim(tmp_path):
    out = tmp_path / "enum.csv"
    assert run_cli(["enumerate", "--dim", "10", "--output-path", str(out)]) == EXIT_OK
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert rows[0] == "q1,q2,p,probability,aggregated_probability,fidelity,effective_squeezing"
    assert len(rows) - 1 == 10**3
    total = sum(float(line.split(",")[3]) for line in rows[1:])
    assert total == pytest.approx(1.0, abs=1e-8)
    assert (tmp_path / "enum_fidelity_curve.csv").exists()
    assert (tmp_path / "enum_squeezing_curve.csv").exists()


def test_sweep_emits_both_targets(tmp_path):
    out = tmp_path / "sweep.csv"
    assert run_cli(["sweep", "--schedule", "pq", "--output-path", str(out)]) == EXIT_OK
    rows = [line.split(",") for line in out.read_text().splitlines() if not line.startswith("#")][1:]
    deltas = {row[0] for row in rows}
    assert deltas == {"0.4", "0.35"}
    pairs = {(int(row[1]), int(row[2])) for row in rows}
    assert (2, 3) in pairs and (4, 7) in pairs


def test_wigner_matrix_text(tmp_path):
    out = tmp_path / "wigner.csv"
    assert run_cli(["wigner", "--dim", "30", "--output-path", str(out)]) == EXIT_OK
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 201
    assert len(rows[0].split(",")) == 201


def test_config_file_and_flag_override(tmp_path):
    cfg_file = tmp_path / "run.cfg"
    cfg_file.write_text("dim=20\nschedule=qp\ndelta-target=0.35\n# comment\n")
    out = tmp_path / "dist.csv"
    code = run_cli(
        ["distribution", "--config", str(cfg_file), "--dim", "24", "--output-path", str(out)]
    )
    assert code == EXIT_OK
    text = out.read_text()
    assert "# config dim=24" in text  # flag wins
    assert "# config delta_target=0.35" in text  # file applies


def test_config_error_exit_code(capsys):
    assert run_cli(["distribution", "--dim", "1"]) == EXIT_CONFIG
    assert "error" in capsys.readouterr().err
    assert run_cli(["distribution", "--schedule", "xy"]) == EXIT_CONFIG
    assert run_cli(["distribution", "--t-max", "1"]) == EXIT_CONFIG
    assert run_cli(["distribution", "--t-max", "0"]) == EXIT_CONFIG
    capsys.readouterr()
    assert run_cli(["chain", "--schedule", "qp", "--t-max", "-20"]) == EXIT_CONFIG
    assert "t_max must be at least 1" in capsys.readouterr().err
    assert run_cli(["chain", "--schedule", "qp", "--postselect", "24"]) == EXIT_CONFIG
    assert run_cli(["chain", "--schedule", "qp", "--postselect", "99,24"]) == EXIT_CONFIG
    assert run_cli(["chain", "--schedule", "qp", "--postselect", "S9,C"]) == EXIT_CONFIG


def test_unwritable_output_path_exit_code(tmp_path, capsys):
    missing = tmp_path / "missing" / "x.json"
    assert run_cli(["chain", "--schedule", "q", "--output-path", str(missing)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(missing) in err and "Traceback" not in err
    assert run_cli(["distribution", "--output-path", str(tmp_path)]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert str(tmp_path) in err and "Traceback" not in err


def test_bad_config_file(tmp_path):
    bad = tmp_path / "bad.cfg"
    bad.write_text("dim 50\n")
    assert run_cli(["distribution", "--config", str(bad)]) == EXIT_CONFIG
    missing = tmp_path / "missing.cfg"
    assert run_cli(["distribution", "--config", str(missing)]) == EXIT_CONFIG


def test_numerical_failure_exit_code(monkeypatch):
    import qpbreed.cli as cli
    from qpbreed.numerics import NumericalError

    def boom(cfg):
        """Synthetic numerical failure."""
        raise NumericalError("synthetic failure")

    monkeypatch.setitem(cli.COMMANDS, "distribution", boom)
    assert run_cli(["distribution"]) == cli.EXIT_NUMERICAL


def test_read_config_file_kebab_keys(tmp_path):
    f = tmp_path / "c.cfg"
    f.write_text("delta-target=0.4\nt-max=8\n")
    values = _read_config_file(str(f))
    assert values == {"delta_target": "0.4", "t_max": "8"}


def test_runconfig_validation():
    cfg = RunConfig(delta_target=1.5)
    with pytest.raises(ValueError):
        cfg.validate()
