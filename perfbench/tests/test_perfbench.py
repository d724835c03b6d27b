"""Tests of the benchmark itself: span arithmetic, the call wrapper and the
output checks. Run with ``python3 -m pytest perfbench/tests``."""

import functools
import json
import math
import sys
import types
from pathlib import Path

import numpy as np
import pytest

BENCH_DIR = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH_DIR), str(BENCH_DIR.parent / "src")]

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

# ------------------------------------------------------------- self time


def test_self_time_of_nested_spans():
    tree = [
        ["root", 0.0, 10.0, None],
        ["a", 1.0, 4.0, 0],
        ["a.leaf", 2.0, 3.0, 1],
        ["b", 5.0, 7.0, 0],
    ]
    assert spans.self_times(tree) == [5.0, 2.0, 1.0, 2.0]


def test_layer_totals_count_recursive_layers_once_and_group_names():
    tree = [
        ["cli.cmd_enumerate", 0.0, 10.0, None],
        ["protocol.breed_step", 1.0, 6.0, 0],
        ["fock.beamsplitter", 2.0, 3.0, 1],
        ["protocol.breed_step", 3.5, 5.0, 1],  # re-entered through another call
        ["protocol.probability_fidelity_curve", 7.0, 8.0, 0],
        ["protocol.effective_squeezing_curve", 8.0, 8.5, 0],
    ]
    totals = spans.layer_totals(tree)
    assert totals["cli"] == {"calls": 1, "s": 10.0, "self_s": 10.0 - 5.0 - 1.5}
    assert totals["protocol.breed_step"] == {"calls": 2, "s": 5.0, "self_s": 2.5 + 1.5}
    assert totals["fock.beamsplitter"]["self_s"] == 1.0
    assert totals["protocol.curves"] == {"calls": 2, "s": 1.5, "self_s": 1.5}


# ---------------------------------------------------------------- wrapper


@pytest.fixture
def fake_package():
    """A two-module package bound the way qpbreed binds its functions."""
    core = types.ModuleType("fakepkg.core")

    @functools.lru_cache(maxsize=None)
    def operator(n):
        return [np.ones(n), np.ones(2 * n)]

    def compute(n):
        return float(core.operator(n)[1].sum()) + n

    core.operator, core.compute = operator, compute
    cli = types.ModuleType("fakepkg.cli")

    def cmd_go(n):
        return cli.compute(n)

    cli.compute, cli.cmd_go = compute, cmd_go
    cli.COMMANDS = {"go": cmd_go}
    package = types.ModuleType("fakepkg")
    modules = {"fakepkg": package, "fakepkg.core": core, "fakepkg.cli": cli}
    sys.modules.update(modules)
    yield modules
    for name in modules:
        del sys.modules[name]


def test_install_wraps_every_binding_and_keeps_results(fake_package):
    core, cli = fake_package["fakepkg.core"], fake_package["fakepkg.cli"]
    expected = core.compute(3)
    core.operator.cache_clear()

    tracer = spans.Tracer(sized=("core.operator",))
    names = spans.install(tracer, "fakepkg", ("core.operator", "core.compute"))

    assert names == ["core.operator", "core.compute", "cli.cmd_go"]
    assert cli.compute is core.compute and cli.compute.__wrapped__ is not None
    assert cli.COMMANDS["go"] is cli.cmd_go
    assert cli.COMMANDS["go"](3) == expected
    assert cli.COMMANDS["go"](3) == expected
    assert [s[0] for s in tracer.spans] == ["cli.cmd_go", "core.compute", "core.operator"] * 2
    assert [s[3] for s in tracer.spans[:3]] == [None, 0, 1]
    assert core.operator.cache_info().hits == 1
    assert core.operator.cache_info().misses == 1
    assert spans.cache_stats("fakepkg", ("core.operator",)) == {
        "core.operator": {"hits": 1, "misses": 1}
    }
    assert tracer.bytes == {"core.operator": 9 * 8}  # sized once, on the miss


def test_wrapper_leaves_qpbreed_results_and_cache_info_unchanged():
    from qpbreed import fock

    cfg = fock.FockConfig(dim=6)
    fock.beamsplitter.cache_clear()
    plain = fock.beamsplitter(cfg)
    plain_info = fock.beamsplitter.cache_info()
    fock.beamsplitter.cache_clear()

    tracer = spans.Tracer()
    wrapped = tracer.wrap("fock.beamsplitter", fock.beamsplitter)
    first, second = wrapped(cfg), wrapped(cfg)
    assert first is second
    assert (first == plain).all()
    assert wrapped.cache_info() == fock.beamsplitter.cache_info()
    assert wrapped.cache_info()._replace(hits=0) == plain_info
    assert tracer.bytes["fock.beamsplitter"] == plain.nbytes
    assert len(tracer.spans) == 2
    fock.beamsplitter.cache_clear()


# ----------------------------------------------------------------- checks


def _csv(header: str, rows) -> bytes:
    lines = ["# schema_version=1", header] + [",".join(str(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def _atlas_outputs(nudge=0.0):
    special = {key: value for key, value in workloads.TABLE_1.items()}
    rest = (1.0 - sum(prob / 8 for _, prob, _ in special.values())) / (
        workloads.ATLAS_LEAVES - len(special)
    )
    rows = []
    dim = workloads.ATLAS_DIM
    for q1 in range(dim):
        for q2 in range(dim):
            for p in range(dim):
                fid, agg, delta = special.get((q1, q2, p), (0.5, 8 * rest, 0.9))
                if (q1, q2, p) == (24, 24, 17):
                    fid += nudge
                rows.append((q1, q2, p, agg / 8, agg, fid, delta))
    header = "q1,q2,p,probability,aggregated_probability,fidelity,effective_squeezing"
    return {
        "enumerate": {
            "atlas.csv": _csv(header, rows),
            "atlas_fidelity_curve.csv": _csv("t,p", [(0.9, 0.1), (0.95, 0.05), (0.99, 0.0)]),
            "atlas_squeezing_curve.csv": _csv("b,p", [(0.3, 0.0), (0.4, 0.07), (0.5, 0.3)]),
        }
    }


def test_atlas_check_accepts_reference_rows_and_rejects_a_nudged_fidelity():
    good = workloads.check("atlas", _atlas_outputs())
    assert good.by_command == {}
    assert good.ref_dev == pytest.approx(0.0, abs=1e-12)

    bad = workloads.check("atlas", _atlas_outputs(nudge=0.01))
    assert list(bad.by_command) == ["enumerate"]
    assert "Table 1 (24, 24, 17) fidelity" in bad.by_command["enumerate"][0]
    assert bad.ref_dev == pytest.approx(0.01)


def test_atlas_check_rejects_a_curve_that_rises_with_the_threshold():
    outputs = _atlas_outputs()
    outputs["enumerate"]["atlas_fidelity_curve.csv"] = _csv("t,p", [(0.9, 0.1), (0.95, 0.2)])
    assert "fidelity curve" in workloads.check("atlas", outputs).by_command["enumerate"][0]


def _ladder_outputs(shift=0.0):
    outputs = {}
    for dim in workloads.LADDER_DIMS:
        records = []
        for k in range(len(workloads.CHAIN_SCHEDULE) + 1):
            fid, prob = workloads.TABLE_3.get(k, (0.75, 1e-3))
            log_single = math.log(prob) - (2**k - 1) * math.log(2)
            if dim == 100 and k == 4:
                fid += shift
            records.append({"iterations": k, "fidelity": fid, "log_probability": log_single})
        payload = json.dumps({"records": records}).encode()
        outputs[f"chain-dim{dim}"] = {f"chain_dim{dim}.json": payload}
    return outputs


def test_ladder_check_gates_even_iterations_across_dims():
    assert workloads.check("ladder", _ladder_outputs()).by_command == {}
    bad = workloads.check("ladder", _ladder_outputs(shift=0.003))
    assert list(bad.by_command) == ["chain-dim100"]


def test_unreadable_output_fails_every_command():
    problems = workloads.check("survey", {"sweep": {"sweep.csv": b"garbage"}})
    assert any("unreadable output" in p for p in problems.by_command["sweep"])


def test_wigner_integral_of_a_normalised_gaussian():
    axis = [-5 + 0.05 * i for i in range(201)]
    grid = [[math.exp(-(q * q + p * p)) / math.pi for p in axis] for q in axis]
    assert workloads.wigner_integral(grid) == pytest.approx(1.0, abs=1e-9)


def test_survey_seed_picks_valid_labels_and_other_workloads_ignore_it():
    for seed in range(20):
        args = {c.name: c.args for c in workloads.commands("survey", seed)}
        q1, q2 = args["distribution-conditioned"][2].split(",")
        q, p = args["wigner-chain"][4].split(",")
        assert {q1, q2, q} <= set(workloads.Q_LABELS) and p in workloads.P_LABELS
    assert workloads.commands("survey", 3) == workloads.commands("survey", 3)
    for name in ("atlas", "ladder"):
        assert workloads.commands(name, 1) == workloads.commands(name, 2)


def test_nonzero_exit_is_a_failed_command(tmp_path):
    command = workloads.Command("bad", ("chain", "--dim", "1", "--output-path", "x.json"), ("x.json",))
    record = run.run_command(command, tmp_path, trace=False, timeout=60)
    assert any(p.startswith("exit code 2") for p in record["problems"])
    assert "dim must be at least 2" in record["problems"][0]


def test_later_repetition_must_repeat_the_first_byte_for_byte():
    def rep(data):
        return [{"command": "enumerate", "traced": False, "problems": [], "outputs": data}]

    good = _atlas_outputs()["enumerate"]
    changed = dict(good, **{"atlas_squeezing_curve.csv": good["atlas_squeezing_curve.csv"] + b"\n"})
    repetitions = [rep(good), rep(dict(good)), rep(changed)]
    judge = run.Judge("atlas")
    for repetition in repetitions:
        judge(repetition)
    assert [r[0]["problems"] for r in repetitions[:2]] == [[], []]
    assert repetitions[2][0]["problems"] == ["output differs from the first repetition"]
    assert repetitions[0][0]["bytes_written"] == sum(len(d) for d in good.values())


def test_wall_time_sums_each_commands_median():
    def rep(a, b):
        return [{"command": "a", "wall_s": a}, {"command": "b", "wall_s": b}, {"command": "c"}]

    # the slow 'a' of the second repetition does not discard its fast 'b'
    assert run.workload_wall([rep(1.0, 5.0), rep(9.0, 2.0), rep(2.0, 3.0)]) == 2.0 + 3.0
