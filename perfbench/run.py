"""CLI-job benchmark for qrelnet.

    python3 perfbench/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; ``src/qrelnet`` is imported from
there, never from an installed copy.  Each workload is a fixed list of real
``qrelnet`` CLI jobs (see ``fixtures.py``).

``--trace 0`` is the end-to-end run: a closed loop with one client, one job
subprocess at a time, repeating the whole job list for about ``--seconds``.
It reports the job-list wall time (the sum of each job's median wall time),
the median wall time of a trivial job (the set-up every job pays) and the
largest max-RSS of any job.

``--trace 1`` runs the job list in this process instead, in pairs of one
traced and one untraced pass for about ``--seconds``; the traced pass wraps
every public ``qrelnet`` function in spans.  It reports per-layer self times
and counters, the tracing overhead, the share of the traced wall time the
spans cover, per-subcommand wall times, and how many jobs' stdout bytes
differ from those recorded at the default seed.  The per-layer table goes to
stdout.

Every answer is checked (``oracles.py``); a job fails on a non-zero exit,
any stderr output or a wrong answer.  The last stdout line is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``; the line
before it holds the run metadata.  Full results and spans are written to
``perfbench/results``.
"""

from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import threading
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import fixtures
import oracles
import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
GOLDEN = HERE / "golden_stdout.json"

SETUP_PROBES_FIRST = 3
SETUP_PROBES_PER_ROUND = 2
JOB_TIMEOUT_S = 90
CLI_CODE = "import sys; from qrelnet.cli import main; sys.exit(main())"
SUBCOMMANDS = ("reliability", "qr", "sample", "split-verify", "hybrid", "sublayer", "matrix")


def _metric(name: str) -> str:
    return name.replace("-", "_") + "_s"


# ---------------------------------------------------------------- subprocess loop

def _child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("PYTHONPATH", "QRELNET_MAX_EDGES")}
    env["PYTHONPATH"] = str(SRC)
    return env


def run_subprocess(job, workdir: Path, env: dict) -> dict:
    """Run one CLI job; wall seconds, max-RSS and outputs of that child only."""
    out_path, err_path = workdir / ".stdout", workdir / ".stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = perf_counter()
        proc = subprocess.Popen([sys.executable, "-c", CLI_CODE, job.command, *job.argv],
                                cwd=workdir, env=env, stdin=subprocess.DEVNULL, stdout=out, stderr=err)
        watchdog = threading.Timer(JOB_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            watchdog.cancel()
        wall = perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "stdout": out_path.read_bytes(), "stderr": err_path.read_bytes(),
            "wall_s": wall, "maxrss_kb": usage.ru_maxrss}


def closed_loop(fx, workdir: Path, seconds: float) -> tuple[dict, dict, int, int]:
    """Repeat the job list, one job at a time, for about ``seconds``.

    A job's figure is the median of its runs, and ``wall_s`` their sum.  The
    set-up probes are spread over the whole run, not taken in one burst: on a
    shared 2-vCPU cloud VM the speed of a fixed pure-Python loop was seen to
    swing by 1.6x between states lasting from seconds to minutes.
    """
    env = _child_env()
    attempted = failed = 0
    errors: dict = {}

    def batch(jobs) -> dict:
        nonlocal attempted, failed
        results = {job.id: run_subprocess(job, workdir, env) for job in jobs}
        outputs = {k: (r["code"], r["stdout"], r["stderr"]) for k, r in results.items()}
        bad = oracles.check_outputs(jobs, outputs)
        attempted += len(jobs)
        failed += len(bad)
        errors.update(bad)
        return results

    def probe(times: int) -> list[float]:
        return [batch([fixtures.SETUP_JOB])[fixtures.SETUP_JOB.id]["wall_s"] for _ in range(times)]

    probe(1)  # warm-up: bytecode caches, page cache
    setup = probe(SETUP_PROBES_FIRST)
    rounds, job_walls, peak_kb = [], {job.id: [] for job in fx.jobs}, 0
    start = perf_counter()
    while True:
        t0 = perf_counter()
        results = batch(fx.jobs)
        rounds.append(perf_counter() - t0)
        for job_id, r in results.items():
            job_walls[job_id].append(r["wall_s"])
            peak_kb = max(peak_kb, r["maxrss_kb"])
        setup += probe(SETUP_PROBES_PER_ROUND)
        if perf_counter() - start + statistics.mean(rounds) > seconds:
            break

    typical = {job_id: statistics.median(walls) for job_id, walls in job_walls.items()}
    metrics = {
        "wall_s": (sum(typical.values()), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
    }
    per_command = {_metric(c): sum(typical[j.id] for j in fx.jobs if j.command == c) for c in SUBCOMMANDS}
    detail = {
        "samples": {"wall_s": len(rounds), "setup_s": len(setup), "peak_rss_mb": len(rounds) * len(fx.jobs)},
        "rounds_s": rounds,
        "setup_runs_s": setup,
        "job_walls_s": job_walls,
        "subcommand_median_s": {k: v for k, v in per_command.items() if v},
        "errors": errors,
    }
    return metrics, detail, attempted, failed


# ---------------------------------------------------------------- in-process runs

def run_in_process(jobs, workdir: Path, trace=None) -> dict:
    from qrelnet.cli import main

    results = {}
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        for job in jobs:
            if trace is not None:
                trace.job = job.id
            out, err = io.StringIO(), io.StringIO()
            start = perf_counter()
            with redirect_stdout(out), redirect_stderr(err):
                code = main([job.command, *job.argv])
            results[job.id] = {"code": code, "stdout": out.getvalue().encode(),
                               "stderr": err.getvalue().encode(), "wall_s": perf_counter() - start}
    finally:
        os.chdir(cwd)
    return results


def digests(results: dict) -> dict:
    return {k: hashlib.sha256(r["stdout"]).hexdigest() for k, r in results.items()}


def default_seed_pass(workload: str, workdir: Path) -> tuple[list, dict]:
    """Jobs and in-process results at the default seed, in a fresh directory."""
    fx = fixtures.build(workload, fixtures.DEFAULT_SEED)
    fx.write(workdir)
    return fx.jobs, run_in_process(fx.jobs, workdir)


def traced_run(fx, workdir: Path, seconds: float) -> tuple[dict, dict, int, int, list]:
    """Pairs of traced and untraced in-process passes for about ``seconds``.

    An untraced default-seed pass comes first: it warms caches and gives the
    stdout bytes compared with golden_stdout.json.  Times are medians over
    the pairs; counters repeat exactly, so they come from the last pass.
    """
    attempted = failed = 0
    errors = {}

    def check(jobs, results) -> None:
        nonlocal attempted, failed
        bad = oracles.check_outputs(jobs, {k: (r["code"], r["stdout"], r["stderr"]) for k, r in results.items()})
        attempted += len(jobs)
        failed += len(bad)
        errors.update(bad)

    start = perf_counter()
    default_dir = workdir / "default-seed"
    default_dir.mkdir()
    default_jobs, default = default_seed_pass(fx.workload, default_dir)
    check(default_jobs, default)
    golden = json.loads(GOLDEN.read_text()).get(fx.workload, {}) if GOLDEN.is_file() else {}
    changed = sum(1 for k, d in digests(default).items() if golden.get(k) != d)

    passes, pair_walls = [], []
    while True:
        t0 = perf_counter()
        trace = tracer.Tracer()
        trace.install()
        try:
            traced = run_in_process(fx.jobs, workdir, trace)
        finally:
            trace.uninstall()
        plain = run_in_process(fx.jobs, workdir)
        pair_walls.append(perf_counter() - t0)
        check(fx.jobs, traced)
        check(fx.jobs, plain)
        summary = trace.summary()
        traced_wall = sum(r["wall_s"] for r in traced.values())
        passes.append({
            "summary": summary,
            "counters": trace.counters,
            "spans": trace.spans,
            "traced_wall_s": traced_wall,
            "plain_wall_s": sum(r["wall_s"] for r in plain.values()),
            "coverage": sum(row["self_s"] for row in summary.values()) / traced_wall,
            "subcommands": {c: sum(plain[j.id]["wall_s"] for j in fx.jobs if j.command == c) for c in SUBCOMMANDS},
        })
        if perf_counter() - start + statistics.mean(pair_walls) > seconds:
            break

    med = lambda key: statistics.median(p[key] for p in passes)
    layers = {name: {field: statistics.median(p["summary"][name][field] for p in passes)
                     for field in ("self_s", "total_s", "calls")}
              for name in tracer.SPAN_NAMES}
    metrics = {f"{name}_s": (row["self_s"], "s") for name, row in layers.items()}
    metrics.update({name: (passes[-1]["counters"][name], "bytes" if name.endswith("_bytes") else "count")
                    for name in tracer.COUNTER_NAMES})
    metrics["cli.stdout_changed"] = (changed, "count")
    for c in SUBCOMMANDS:
        metrics[f"subcommand.{_metric(c)}"] = (statistics.median(p["subcommands"][c] for p in passes), "s")
    metrics["trace.overhead_frac"] = (med("traced_wall_s") / med("plain_wall_s") - 1.0, "ratio")
    metrics["trace.coverage_frac"] = (med("coverage"), "ratio")
    detail = {
        "samples": {name: len(passes) for name in metrics},
        "layers": layers,
        "traced_wall_s": [p["traced_wall_s"] for p in passes],
        "untraced_wall_s": [p["plain_wall_s"] for p in passes],
        "errors": errors,
    }
    return metrics, detail, attempted, failed, [p["spans"] for p in passes]


def _layer_table(workload: str, summary: dict, metrics: dict) -> str:
    lines = [f"per-layer trace, workload {workload}",
             f"{'span':28s} {'self_s':>10s} {'total_s':>10s} {'calls':>8s}"]
    for name, row in summary.items():
        lines.append(f"{name:28s} {row['self_s']:10.4f} {row['total_s']:10.4f} {row['calls']:8.0f}")
    for name in tracer.COUNTER_NAMES + ("cli.stdout_changed",):
        lines.append(f"{name:28s} {metrics[name][0]:>10}")
    for name in ("trace.overhead_frac", "trace.coverage_frac"):
        lines.append(f"{name:28s} {metrics[name][0]:10.4f}")
    return "\n".join(lines)


# ---------------------------------------------------------------- metadata

def _git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return None


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def metadata(args) -> dict:
    source = hashlib.sha256()
    for path in sorted((SRC / "qrelnet").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": _git_commit(),
        "source_sha256": source.hexdigest(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


# ---------------------------------------------------------------- main

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=fixtures.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "qrelnet" / "cli.py").is_file():
        print(f"no qrelnet sources under {SRC}; run from the root of a source checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    os.environ.pop("QRELNET_MAX_EDGES", None)

    meta = metadata(args)
    fx = fixtures.build(args.workload, args.seed)
    RESULTS.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with tempfile.TemporaryDirectory(prefix="work-", dir=HERE) as tmp:
        workdir = Path(tmp)
        fx.write(workdir)
        if args.trace:
            metrics, detail, attempted, failed, spans = traced_run(fx, workdir, args.seconds)
            spans_path = RESULTS / f"spans-{stem}.json"
            spans_path.write_text(json.dumps({"metadata": meta, "fields": ["name", "start", "end", "parent", "job"],
                                              "passes": spans}))
            detail["spans_file"] = spans_path.name
            print(_layer_table(args.workload, detail["layers"], metrics))
        else:
            metrics, detail, attempted, failed = closed_loop(fx, workdir, args.seconds)

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    (RESULTS / f"{stem}.json").write_text(json.dumps({"metadata": meta, **detail, **result}, indent=1) + "\n")
    for job_id, problem in detail["errors"].items():
        print(f"FAILED {job_id}: {problem}", file=sys.stderr)
    print(json.dumps({"metadata": meta, "samples": detail["samples"]}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
