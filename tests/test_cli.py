import json
import subprocess
import sys
from pathlib import Path

import pytest

import qpbreed
from qpbreed.cli import (
    _FIELDS,
    COMMANDS,
    EXIT_CONFIG,
    EXIT_OK,
    READS,
    RunConfig,
    _build_parser,
    _read_config_file,
    _resolve_config,
    _sibling_path,
    main,
)


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


def test_enumerate_over_budget_exits_before_the_target(monkeypatch, capsys):
    def unbuilt(cfg):
        raise AssertionError("the target was built for a refused enumeration")

    monkeypatch.setattr(RunConfig, "target", unbuilt)
    # 127³ = 2,048,383 leaves, just over the budget
    assert run_cli(["enumerate", "--dim", "127"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert "over the budget of 2000000" in err and "Traceback" not in err


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


def test_wigner_matrix_text(tmp_path):
    out = tmp_path / "wigner.csv"
    assert run_cli(["wigner", "--dim", "30", "--output-path", str(out)]) == EXIT_OK
    rows = [line for line in out.read_text().splitlines() if not line.startswith("#")]
    assert len(rows) == 201
    assert len(rows[0].split(",")) == 201


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
    # the envelope cutoff follows from delta and is no setting
    assert run_cli(["chain", "--schedule", "qp", "--t-max", "20"]) == EXIT_CONFIG
    assert "unrecognized arguments: --t-max 20" in capsys.readouterr().err
    assert run_cli(["chain", "--schedule", "qp", "--delta-target", "0.001"]) == EXIT_CONFIG
    assert "delta=0.001 is too small for dim 50" in capsys.readouterr().err
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


def test_numerical_failure_exit_code(monkeypatch):
    import qpbreed.cli as cli
    from qpbreed.numerics import NumericalError

    def boom(cfg):
        """Synthetic numerical failure."""
        raise NumericalError("synthetic failure")

    monkeypatch.setitem(cli.COMMANDS, "distribution", boom)
    assert run_cli(["distribution"]) == cli.EXIT_NUMERICAL


def test_memory_error_exit_code(monkeypatch, capsys):
    import qpbreed.cli as cli

    def hungry(cfg):
        """Synthetic allocation failure."""
        raise MemoryError("Unable to allocate 13.4 GiB")

    monkeypatch.setitem(cli.COMMANDS, "distribution", hungry)
    assert run_cli(["distribution", "--dim", "30000"]) == EXIT_CONFIG
    err = capsys.readouterr().err
    assert err.startswith("error: dim=30000 ") and "13.4 GiB" in err
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
