"""qpbreed benchmark: CLI workloads end to end, or per layer from a traced run.

Usage, from the root of a source checkout:

    python3 perfbench/run.py --workload atlas|ladder|survey --seed N \\
        --seconds S --trace 0|1

Every command of the workload runs through the real ``qpbreed`` entry point
in a fresh process (``perfbench/child.py``), one after another, with
``src`` on ``PYTHONPATH``. The whole workload is repeated until the next
repetition would end after ``--seconds``, and at least twice, so that every
output can be compared byte for byte with the first repetition's. The first
repetition's outputs are checked against the paper's reference values.

With ``--trace 0`` the end-to-end metrics come from untraced repetitions.
With ``--trace 1`` untraced and traced repetitions alternate; the traced
ones give the per-layer metrics, and the difference in ``wall_s`` is the
tracing overhead. Metric names and units are read from ``BENCHMARK.json``.

The last line of standard output is the result as one JSON object; the line
before it holds the run's metadata and per-command figures, which are also
written to ``perfbench/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import spans
import workloads

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
MIN_REPETITIONS = 2
# No command starts, and none runs on, past this many seconds into a run, so
# a run ends within three minutes even when a command hangs.
HARD_LIMIT_S = 170.0


def fail(message: str) -> int:
    print(f"perfbench: {message}", file=sys.stderr)
    return 2


def git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def source_digest() -> str:
    """SHA-256 over the package sources, which names the code under test in
    checkouts that are not git repositories."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def run_command(command, work: Path, trace: bool, timeout: float) -> dict:
    """Run one CLI command in a fresh process; return its measurements."""
    report_path = work / f"report-{command.name}.json"
    for name in (*command.outputs, report_path.name):
        (work / name).unlink(missing_ok=True)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    argv = [sys.executable, str(BENCH_DIR / "child.py"), str(report_path), str(int(trace)), "--"]
    record = {"command": command.name, "traced": trace, "problems": []}
    started = time.monotonic()
    try:
        proc = subprocess.run(
            argv + list(command.args), cwd=work, env=env, capture_output=True, timeout=timeout
        )
    except subprocess.TimeoutExpired:
        record["problems"].append(f"timed out after {timeout:.0f} s")
        return record
    stderr = proc.stderr.decode(errors="replace")
    if proc.returncode != 0:
        record["problems"].append(f"exit code {proc.returncode}: {stderr.strip()[-500:]}")
    if "Traceback" in stderr:
        record["problems"].append("traceback on stderr")
    if not report_path.exists():
        record["problems"].append("no report written")
        return record
    report = json.loads(report_path.read_text())
    record.update(
        wall_s=report["wall_s"],
        setup_s=report["imported_at"] - started,
        peak_rss_mb=report["peak_rss_mb"],
        environment=report["environment"],
    )
    for key in ("spans", "bytes", "caches"):
        if key in report:
            record[key] = report[key]
    record["outputs"] = {}
    for name in command.outputs:
        path = work / name
        if path.exists():
            record["outputs"][name] = path.read_bytes()
        else:
            record["problems"].append(f"output {name} not written")
    return record


def run_repetition(cmds, work: Path, trace: bool, deadline: float) -> list[dict]:
    records = []
    for command in cmds:
        remaining = deadline - time.monotonic()
        if remaining <= 0:
            records.append({"command": command.name, "traced": trace, "problems": ["out of time"]})
            continue
        records.append(run_command(command, work, trace, remaining))
    return records


def digest(files: dict[str, bytes]) -> dict[str, str]:
    return {name: hashlib.sha256(data).hexdigest() for name, data in files.items()}


class Judge:
    """Checks the first repetition's outputs and holds every later one to them.

    A later repetition, traced or not, passes a command only if its outputs
    are byte-identical to the first repetition's and those passed. Outputs
    are dropped once judged; only their total size is kept.
    """

    def __init__(self, workload: str):
        self.workload = workload
        self.checked: workloads.Problems | None = None
        self.reference: dict[str, tuple[dict, bool]] = {}

    def __call__(self, repetition: list[dict]) -> None:
        if self.checked is None:
            self._check_first(repetition)
        else:
            for record in repetition:
                self._compare(record)
        for record in repetition:
            outputs = record.pop("outputs", {})
            record["bytes_written"] = sum(len(data) for data in outputs.values())

    def _compare(self, record: dict) -> None:
        hashes, passed = self.reference[record["command"]]
        if record["problems"]:
            return
        if digest(record["outputs"]) != hashes:
            record["problems"].append("output differs from the first repetition")
        elif not passed:
            record["problems"].append("same output as a failed first repetition")

    def _check_first(self, first: list[dict]) -> None:
        if all(not r["problems"] for r in first):
            self.checked = workloads.check(self.workload, {r["command"]: r["outputs"] for r in first})
        else:
            self.checked = workloads.Problems()
            for record in first:
                self.checked.require(record["command"], False, "first repetition incomplete")
        for record in first:
            record["problems"] += self.checked.by_command.get(record["command"], [])
            self.reference[record["command"]] = (
                digest(record.get("outputs", {})),
                not record["problems"],
            )


def median(values) -> float:
    values = list(values)
    return statistics.median(values) if values else float("nan")


def measured(repetitions: list[list[dict]]) -> list[dict]:
    return [r for rep in repetitions for r in rep if "wall_s" in r]


def workload_wall(repetitions: list[list[dict]]) -> float:
    """Time inside the entry point, summed over the workload's commands, of
    each command's median over the repetitions. Each command is its own
    process, so its noise is its own; a per-command median discards a slow
    process without discarding the rest of its repetition."""
    walls: dict[str, list[float]] = {}
    for record in measured(repetitions):
        walls.setdefault(record["command"], []).append(record["wall_s"])
    return sum(median(w) for w in walls.values()) if walls else float("nan")


def end_to_end(untraced: list[list[dict]], checked, attempted: int, failed: int) -> dict:
    rss = [max((r["peak_rss_mb"] for r in measured([rep])), default=float("nan")) for rep in untraced]
    return {
        "wall_s": workload_wall(untraced),
        "setup_s": median(r["setup_s"] for r in measured(untraced)),
        "peak_rss_mb": median(rss),
        "ref_dev": checked.ref_dev,
        "success_rate": (attempted - failed) / attempted,
    }


def layer_counts(repetition: list[dict]) -> tuple[dict, dict]:
    """Per-layer counts and times of one traced repetition, summed over its
    commands; layers that were never called read zero."""
    counts: dict[str, int] = {}
    times: dict[str, float] = {}
    for layer in {spans.layer_name(name) for name in spans.TRACED} | {"cli"}:
        counts[f"{layer}.calls"] = 0
        times[f"{layer}.s"] = times[f"{layer}.self_s"] = 0.0
    for name in spans.CACHED:
        counts[f"{name}.hits"] = counts[f"{name}.misses"] = 0
    for name in spans.SIZED:
        counts[f"{name}.bytes"] = 0
    counts["cli.bytes_written"] = 0
    for record in repetition:
        for layer, entry in spans.layer_totals(record.get("spans", [])).items():
            counts[f"{layer}.calls"] += entry["calls"]
            times[f"{layer}.s"] += entry["s"]
            times[f"{layer}.self_s"] += entry["self_s"]
        for name, info in record.get("caches", {}).items():
            counts[f"{name}.hits"] += info["hits"]
            counts[f"{name}.misses"] += info["misses"]
        for name, size in record.get("bytes", {}).items():
            counts[f"{name}.bytes"] += size
        counts["cli.bytes_written"] += record.get("bytes_written", 0)
    return counts, times


def per_layer(untraced, traced) -> tuple[dict, bool]:
    """Per-layer metrics: counts from the traced repetitions (which must
    agree exactly), median times, and the tracing overhead."""
    results = [layer_counts(rep) for rep in traced]
    counts = results[0][0]
    repeat = all(r[0] == counts for r in results)
    values: dict[str, float] = dict(counts)
    for key in results[0][1]:
        values[key] = median(r[1][key] for r in results)
    values["trace.overhead_s"] = workload_wall(traced) - workload_wall(untraced)
    return values, repeat


def select(declared: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"BENCHMARK.json names metrics this run does not measure: {missing}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared}


def command_summary(repetitions: list[list[dict]]) -> list[dict]:
    summary = {}
    for repetition in repetitions:
        for record in repetition:
            entry = summary.setdefault(
                record["command"], {"command": record["command"], "wall_s": [], "traced_wall_s": []}
            )
            if "wall_s" in record:
                entry["traced_wall_s" if record["traced"] else "wall_s"].append(record["wall_s"])
                entry["peak_rss_mb"] = max(entry.get("peak_rss_mb", 0.0), record["peak_rss_mb"])
            if record["problems"]:
                entry.setdefault("problems", []).extend(record["problems"])
    return list(summary.values())


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    started = time.monotonic()
    if not (ROOT / "src" / "qpbreed" / "cli.py").is_file():
        return fail(f"no qpbreed sources under {ROOT / 'src'}; run from a source checkout")
    try:
        declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")

    cmds = workloads.commands(args.workload, args.seed)
    work = BENCH_DIR / "_work" / f"{args.workload}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    deadline = started + HARD_LIMIT_S
    modes = (False, True) if args.trace else (False,)
    repetitions: list[list[dict]] = []
    judge = Judge(args.workload)
    try:
        longest = 0.0
        while True:
            traced = modes[len(repetitions) % len(modes)]
            rep_start = time.monotonic()
            repetitions.append(run_repetition(cmds, work, traced, deadline))
            judge(repetitions[-1])
            longest = max(longest, time.monotonic() - rep_start)
            expected_end = time.monotonic() - started + longest
            enough = len(repetitions) >= max(MIN_REPETITIONS, len(modes))
            if expected_end > (min(args.seconds, HARD_LIMIT_S) if enough else HARD_LIMIT_S):
                break
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checked = judge.checked
    records = [r for rep in repetitions for r in rep]
    attempted = len(records)
    failed = sum(1 for r in records if r["problems"])
    untraced = [rep for rep in repetitions if not rep[0]["traced"]]
    traced = [rep for rep in repetitions if rep[0]["traced"]]
    values = end_to_end(untraced, checked, attempted, failed)
    counts_repeat = True
    if args.trace:
        if not traced:
            return fail("no traced repetition finished within the time limit")
        layer_values, counts_repeat = per_layer(untraced, traced)
        metrics = select(declared["per_layer"], layer_values)
    else:
        metrics = select(declared["end_to_end"], values)

    environment = next((r["environment"] for r in records if "environment" in r), None)
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "environment": environment,
        "dims": sorted({c.dim for c in cmds}),
        "commands": [" ".join(c.args) for c in cmds],
        "repetitions": {"untraced": len(untraced), "traced": len(traced)},
        "end_to_end": values,
        "notes": checked.notes,
        "trace_counts_repeat": counts_repeat,
        "per_command": command_summary(repetitions),
    }
    result = {
        "correct": failed == 0 and counts_repeat,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    results_dir = BENCH_DIR / "results"
    results_dir.mkdir(exist_ok=True)
    saved = dict(info, result=result)
    if traced:
        saved["spans"] = {r["command"]: r.get("spans", []) for r in traced[-1]}
    out = results_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(saved, indent=1) + "\n")
    print(json.dumps(info))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
