"""Benchmark entry point: ``python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1``.

Runs one workload of the lmpcast CLI on a seeded synthetic market and prints
every metric by name and unit, then, as the last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones from a
run whose passes alternate untraced and traced.

This process imports neither numpy nor lmpcast. It times set-up from the
spawn of a workload process to that process's ``ready`` line: two set-up-only
processes and the workload process each give one sample, and ``setup_s`` is
the median of the reference-scaled samples (see ``REFERENCE_NOMINAL_S``).
Every process started here is waited for before exit. Work
files go to ``.bench_work/`` and are removed; the result record, the trace
and the workload log go to ``.bench_out/``.
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
import threading
import time
from pathlib import Path

import tracing

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ("backtest_fit_once", "select_grid", "backtest_rolling")
SETUP_PROBES = 2
RUN_DEADLINE_S = 170.0
# What worker.reference_s() reads on the 2-core box the baseline was taken
# on. Timed metrics are scaled by REFERENCE_NOMINAL_S / (the reference time
# measured next to them), so they read as seconds of that box at its usual
# speed, and the box's drift in speed divides out.
REFERENCE_NOMINAL_S = 0.25

E2E = {
    "setup_s": "s",
    "ops_per_s": "ops/s",
    "peak_rss_mb": "MB",
}

# Per-layer metrics of the traced run: timings are medians over the traced
# passes, counts are per pass and must repeat exactly between passes.
PER_LAYER = {
    "init.import_s": "s",
    "dataio.synth_market_s": "s",
    "dataio.write_lmp_csv_s": "s",
    "dataio.load_lmp_csv_s": "s",
    "dataio.load_rows_per_s": "rows/s",
    "cli.self_s": "s",
    "backtest.pipeline_forecast_calls": "count",
    "backtest.pipeline_forecast_s": "s",
    "backtest.pipeline_forecast_self_s": "s",
    "backtest.origin_p50_us": "us",
    "backtest.origin_tail_us": "us",
    "series.transform_s": "s",
    "backtest.score_s": "s",
    "arima.forecast_calls": "count",
    "arima.forecast_s": "s",
    "arima.residuals_calls": "count",
    "arima.residuals_s": "s",
    "arima.check_conforms_calls": "count",
    "arima.check_conforms_s": "s",
    "lagpoly.is_stable_calls": "count",
    "lagpoly.is_stable_s": "s",
    "garch.forecast_variance_calls": "count",
    "garch.forecast_variance_s": "s",
    "arima.filtered_samples": "count",
    "backtest.fit_pipeline_calls": "count",
    "backtest.fit_pipeline_s": "s",
    "estimation.fit_calls": "count",
    "estimation.fit_s": "s",
    "estimation.fit_self_s": "s",
    "estimation.objective_evals": "count",
    "estimation.evals_per_fit": "count",
    "arima.profiled_log_likelihood_calls": "count",
    "arima.eval_us": "us",
    "lagpoly.multiply_calls": "count",
    "lagpoly.multiply_s": "s",
    "estimation.grid_select_s": "s",
    "estimation.unconverged_share": "fraction",
    "estimation.fit_garch_calls": "count",
    "estimation.fit_garch_s": "s",
    "estimation.model_forecast_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "improvement_pct": "%",
    "grid_bic_best": "BIC",
    "failed_share": "fraction",
}


class BenchError(Exception):
    """The benchmark could not produce a result."""


def git_commit(root: Path) -> str | None:
    """Commit of a git checkout, read from ``.git`` without running git."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest(root: Path) -> str:
    """SHA-256 over the package sources, identifying code in a checkout without git."""
    digest = hashlib.sha256()
    for path in sorted((root / "src" / "lmpcast").rglob("*.py")):
        digest.update(path.relative_to(root).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Worker:
    """One workload process, killed if it outlives the run deadline."""

    def __init__(self, request: dict, log_path: Path, deadline: float) -> None:
        self.log = open(log_path, "a", encoding="utf-8")
        self.t_spawn = time.perf_counter()
        self.proc = subprocess.Popen(
            [sys.executable, str(WORKER), json.dumps(request)],
            stdout=subprocess.PIPE, stderr=self.log, stdin=subprocess.DEVNULL,
            cwd=ROOT, text=True,
        )
        self.timer = threading.Timer(max(0.0, deadline - time.perf_counter()), self.proc.kill)
        self.timer.start()

    def expect(self, prefix: str) -> str:
        line = self.proc.stdout.readline()
        if not line.startswith(prefix):
            raise BenchError(f"workload process sent {line[:200]!r}, expected {prefix!r}")
        return line[len(prefix):]

    def close(self) -> int:
        """Wait for the process to end (idempotent); returns its exit code."""
        if not self.log.closed:
            self.timer.cancel()
            self.proc.stdout.read()
            self.proc.wait()
            self.proc.stdout.close()
            self.log.close()
        return self.proc.returncode

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        if exc[0] is not None and self.proc.poll() is None:
            self.proc.kill()
        self.close()


def scaled(wall_s: float, ref_s: float) -> float:
    """Wall time converted to reference-speed seconds."""
    return wall_s * REFERENCE_NOMINAL_S / ref_s


def result_line(child: dict, setup_samples: list[tuple[float, float]], trace: bool) -> tuple[dict, list[str]]:
    """The final result line from a workload process's record, and the failed checks.

    ``setup_samples`` holds one (wall seconds, reference seconds) pair per
    set-up process.
    """
    passes = child["passes"]
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    problems = [f"{p['run']}: {msg}" for p in passes for msg in p["problems"]]
    problems += child.get("trace_problems", [])
    if trace:
        values = dict(child["layers"])
        values["improvement_pct"] = child["quality"].get("improvement_pct", 0.0)
        values["grid_bic_best"] = child["quality"].get("grid_bic_best", 0.0)
        values["failed_share"] = failed / attempted
        units = PER_LAYER
    else:
        values = {
            "setup_s": statistics.median(scaled(wall, ref) for wall, ref in setup_samples),
            "ops_per_s": statistics.median((p["attempted"] - p["failed"]) / scaled(p["wall_s"], p["ref_s"])
                                           for p in passes),
            "peak_rss_mb": child["peak_rss_mb"],
        }
        units = E2E
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}
    line = {"correct": not problems and failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}
    return line, problems


def run(workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, dict]:
    """Run the workload; returns (final result line, full record)."""
    deadline = time.perf_counter() + RUN_DEADLINE_S
    nproc = os.cpu_count() or 1
    env = {
        "nproc": nproc,
        "loadavg_start": os.getloadavg(),
        "git_commit": git_commit(ROOT),
        "src_sha256": source_digest(ROOT),
    }
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    stem = f"{workload}-s{seed}-t{int(trace)}"
    log_path = out_dir / f"{stem}.log"
    log_path.write_text("", encoding="utf-8")
    work = ROOT / ".bench_work" / f"{stem}-p{os.getpid()}"
    base = {"workload": workload, "seed": seed}
    setup_samples = []
    try:
        if not trace:
            for i in range(SETUP_PROBES):
                request = dict(base, setup_only=True, workdir=str(work / f"probe{i}"))
                with Worker(request, log_path, deadline) as w:
                    w.expect("ready")
                    wall = time.perf_counter() - w.t_spawn
                    setup_samples.append((wall, float(w.expect("ref "))))
                    code = w.close()
                if code != 0:
                    raise BenchError(f"set-up process exited with {code}")
        request = dict(base, seconds=seconds, trace=trace, workdir=str(work / "main"),
                       trace_path=str(out_dir / f"trace-{stem}.json") if trace else None)
        with Worker(request, log_path, deadline) as w:
            w.expect("ready")
            wall = time.perf_counter() - w.t_spawn
            setup_samples.append((wall, float(w.expect("ref "))))
            child = json.loads(w.expect("result "))
            code = w.close()
        if code != 0:
            raise BenchError(f"workload process exited with {code}")
    finally:
        shutil.rmtree(work, ignore_errors=True)

    env["loadavg_end"] = os.getloadavg()
    env.update(child["env"])
    env["loaded"] = max(env["loadavg_start"][0], env["loadavg_end"][0]) > nproc - 1
    line, problems = result_line(child, setup_samples, trace)
    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "env": env, "setup_samples_s": setup_samples, "passes": child["passes"], "quality": child["quality"],
        "failed_share": line["failed"] / line["attempted"], "problems": problems,
        "unmeasured": child.get("unmeasured", []), "result": line,
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    return line, record


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "lmpcast" / "__init__.py").is_file():
        print(f"error: no lmpcast sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        line, record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}; see .bench_out/ for the workload log", file=sys.stderr)
        return 1
    env = record["env"]
    if env["loaded"]:
        print(f"warning: load average {env['loadavg_start'][0]:.2f}/{env['loadavg_end'][0]:.2f} "
              f"exceeds nproc - 1 = {env['nproc'] - 1}", file=sys.stderr)
    for problem in record["problems"]:
        print(f"check failed: {problem}", file=sys.stderr)
    print("env " + json.dumps(env, sort_keys=True))
    print(f"passes {len(record['passes'])}: "
          + " ".join(f"{p['wall_s']:.3f}s{'(traced)' if p['traced'] else ''}" for p in record["passes"]))
    for name in record["unmeasured"]:
        print(f"unmeasured {name}: not found in the package, its metrics read 0")
    if record["trace"]:
        samples = line["metrics"]["backtest.pipeline_forecast_calls"]["value"]
        tail = tracing.tail_percentile(samples)
        print(f"backtest.origin_tail_us is p{tail} of {samples} origin samples" if tail else
              f"backtest.origin_tail_us: {samples} origin samples are too few for a tail")
    else:
        walls = record["passes"]
        print(f"setup_wall_s {statistics.median(w for w, _ in record['setup_samples_s']):.6g} s")
        print(f"ops_per_wall_s {statistics.median((p['attempted'] - p['failed']) / p['wall_s'] for p in walls):.6g} ops/s")
        print(f"reference_s {statistics.median(p['ref_s'] for p in walls):.6g} s")
        print(f"failed_share {record['failed_share']:.6g} fraction")
        for name, value in record["quality"].items():
            print(f"{name} {value:.6f} {PER_LAYER[name]}")
    for name, metric in line["metrics"].items():
        print(f"{name} {metric['value']:.6g} {metric['unit']}")
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
