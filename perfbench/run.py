"""Benchmark of the ``rectfree`` command line, end to end and per layer.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload search6 --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --all          # every workload, one table

Each workload is a closed loop of real CLI commands: one child process at
a time, each started when the last has exited, in a fresh work directory
under ``.perfbench_work/``.  The seed moves the slice and mid-slice
checkpoint boundaries; the total rows, and so every pinned output, stay
the same.  A run sets up three times, then repeats set-up and workload
while another iteration still fits in ``--seconds``, and reports medians.

``--trace 0`` prints the end-to-end metrics: ``setup_s`` (fresh work
directory plus one child that imports ``rectfree.cli``), ``wall_s``,
``cpu_s`` (user + system of the children, from ``os.wait4``) and
``peak_rss_mb`` (largest max-RSS among the children).  ``--trace 1``
alternates untraced iterations with iterations whose commands run under
``perfbench/traced_cli.py``, and prints the per-layer metrics of
``LAYERS``.  Every command's exit code, stdout and output files are
checked against pins taken at the commit that added this benchmark; a
mismatch counts in ``failed``.

The last line of stdout is the result object; the line before it,
starting with ``detail``, records the host, commit, load averages and
every sample.  Traced runs also leave their spans in
``.perfbench_work/trace-<workload>-seed<seed>.json``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".perfbench_work")
TRACED_CLI = os.path.join(ROOT, "perfbench", "traced_cli.py")
HARD_LIMIT_S = 170.0
SETUP_REPEATS = 3  # set-ups before the first iteration; one more precedes each

# Output digests pinned from the unsliced commands.
STREAM6_LOG_SHA256 = \
    "b60ca78e22691d9b43588ea9c86b9a57c48c61ddc12692efc92f21602b0a4aa7"
FOLD3_M10_SHA256 = \
    "354d9940ce40e27d8581e05236f0b14a4c2d78fc371349fcf745eaf8b950745c"
FOLD16_P1_SHA256 = \
    "d18d14092311b7f3b919def5ebd87f3b8161d8c8289c757ab95e9807806074f3"


@dataclass
class Step:
    """One CLI command and the result it must give."""

    argv: list[str]
    code: int
    stdout: str
    digests: dict[str, str] = field(default_factory=dict)  # file -> sha256


@dataclass
class Plan:
    steps: list[Step]
    rows: int  # rows the workload advances; 0 when it is not row-bound
    checkpoint: str | None = None


# -- workloads ---------------------------------------------------------------

# Each workload is sized so that one iteration takes 4-9 s: a run of
# --seconds 36 then reports the median of 4-9 iterations, which evens out
# a host whose speed drifts by tens of percent within seconds.

def search6(rng: random.Random) -> Plan:
    """Order-6 period search in three slices sharing one checkpoint."""
    every = rng.randint(30_000, 40_000)
    cuts = [50_000 + rng.randint(-4_000, 4_000),
            100_000 + rng.randint(-4_000, 4_000), 150_000]
    steps = [Step(["period", "-n", "6", "--max-rows", str(cut),
                   "--checkpoint", "search6.ckpt",
                   "--checkpoint-every-rows", str(every),
                   "--progress-every", "0"], 3,
                  f"n=6 budget exhausted after {cut} rows; no period "
                  f"confirmed\nresumable checkpoint: search6.ckpt\n")
             for cut in cuts]
    return Plan(steps, rows=cuts[-1], checkpoint="search6.ckpt")


def stream6(rng: random.Random) -> Plan:
    """Order-6 row stream to a log, in two slices resumed from a checkpoint."""
    every = rng.randint(35_000, 50_000)
    cuts = [100_000 + rng.randint(-10_000, 10_000), 200_000]
    steps = [Step(["gen", "-n", "6", "--rows", str(cut),
                   "--out", "stream6.rows", "--checkpoint", "stream6.ckpt",
                   "--checkpoint-every-rows", str(every),
                   "--progress-every", "0"], 0,
                  f"rows: {cut}\nrow log: stream6.rows\n"
                  f"checkpoint: stream6.ckpt\n")
             for cut in cuts]
    steps[-1].digests["stream6.rows"] = STREAM6_LOG_SHA256
    return Plan(steps, rows=cuts[-1], checkpoint="stream6.ckpt")


def configs(rng: random.Random) -> Plan:
    """Fold and verify: a 160_4 configuration and the order-16 plane.

    Nothing here depends on the seed.
    """
    return Plan([
        Step(["fold", "-n", "3", "-m", "10", "--out", "c3.txt",
              "--progress-every", "0"], 0,
             "n=3 fold: 160 x 160, pp=48 p=16 m=10 p_bar=160 v=208\n"
             "matrix: c3.txt\n", {"c3.txt": FOLD3_M10_SHA256}),
        Step(["verify", "-n", "3", "--aut", "c3.txt"], 0,
             "configuration 160_4\nprojective plane: no\n"
             "automorphisms: 10 (point/line bijections; dualities not "
             "counted)\n"),
        Step(["fold", "-n", "16", "--compact", "--format", "p1",
              "--out", "c16.txt", "--progress-every", "0"], 0,
             "n=16 compact plane: 273 x 273, p=273\nmatrix: c16.txt\n",
             {"c16.txt": FOLD16_P1_SHA256}),
        Step(["verify", "-n", "16", "--iso", "16", "c16.txt"], 0,
             "configuration 273_17\nprojective plane of order 16\n"
             "isomorphic to the order-16 reference plane: yes\n"),
    ], rows=0)


WORKLOADS = {"search6": search6, "stream6": stream6, "configs": configs}

END_TO_END = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MiB",
              "setup_s": "s"}


# -- child processes ---------------------------------------------------------

def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    env.pop("RECTFREE_CHECKPOINT_DIR", None)
    return env


def run_child(argv, cwd, env, out_path, err_path, deadline):
    """Run argv to completion; returns (exit code, cpu seconds, max RSS KB).

    The child is killed when ``deadline`` (a ``time.monotonic`` value)
    passes, which shows as a negative exit code.
    """
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env,
                                stdin=subprocess.DEVNULL, stdout=out,
                                stderr=err)
    timer = threading.Timer(max(0.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss)


def sha256_file(path: str) -> str | None:
    if not os.path.exists(path):
        return None
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def fresh_dir(path: str) -> None:
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def setup(workdir: str, env, deadline: float) -> float:
    """Time one set-up: a fresh work directory and an importing child."""
    t0 = time.perf_counter()
    fresh_dir(workdir)
    code, _, _ = run_child([sys.executable, "-c", "import rectfree.cli"],
                           workdir, env, os.path.join(workdir, "setup.out"),
                           os.path.join(workdir, "setup.err"), deadline)
    elapsed = time.perf_counter() - t0
    if code != 0:
        with open(os.path.join(workdir, "setup.err"), encoding="utf-8",
                  errors="replace") as fh:
            sys.exit(f"perfbench: cannot import rectfree.cli:\n{fh.read()}")
    return elapsed


def run_iteration(plan: Plan, workdir: str, env, traced: bool,
                  deadline: float) -> dict:
    """Run every step once in ``workdir`` and check the results."""
    codes, cpu, peak_kb = [], 0.0, 0
    t0 = time.perf_counter()
    for i, step in enumerate(plan.steps):
        if traced:
            argv = [sys.executable, TRACED_CLI,
                    os.path.join(workdir, f"trace-{i}.json"), *step.argv]
        else:
            argv = [sys.executable, "-m", "rectfree", *step.argv]
        code, step_cpu, rss_kb = run_child(
            argv, workdir, env, os.path.join(workdir, f"out-{i}.txt"),
            os.path.join(workdir, f"err-{i}.txt"), deadline)
        codes.append(code)
        cpu += step_cpu
        peak_kb = max(peak_kb, rss_kb)
        if code < 0:
            break  # killed at the deadline
    wall = time.perf_counter() - t0
    failed = len(plan.steps) - len(codes)  # steps never started
    for i, (step, code) in enumerate(zip(plan.steps, codes)):
        with open(os.path.join(workdir, f"out-{i}.txt"), "rb") as fh:
            stdout = fh.read().decode("utf-8", "replace")
        ok = code == step.code and stdout == step.stdout and all(
            sha256_file(os.path.join(workdir, name)) == want
            for name, want in step.digests.items())
        failed += not ok
    ckpt = plan.checkpoint and os.path.join(workdir, plan.checkpoint)
    result = {
        "wall_s": wall, "cpu_s": cpu, "peak_rss_mb": peak_kb / 1024,
        "attempted": len(plan.steps), "failed": failed,
        "killed": codes[-1] < 0,
        "checkpoint_bytes": (os.path.getsize(ckpt)
                             if ckpt and os.path.exists(ckpt) else 0),
    }
    if traced:
        result["traces"] = []
        for i in range(len(codes)):
            path = os.path.join(workdir, f"trace-{i}.json")
            if os.path.exists(path):
                with open(path, encoding="ascii") as fh:
                    result["traces"].append(json.load(fh))
    return result


# -- per-layer metrics -------------------------------------------------------

# name -> (unit, better, wrapped names it needs)
LAYERS = {
    "cli.import_s": ("s", "lower", ()),
    "cli.self_s": ("s", "lower", ()),
    "generator.rows": ("count", "higher", ("GeneratorState.next_row",)),
    "generator.us_per_row": ("us", "lower", ("GeneratorState.next_row",)),
    "period.rows": ("count", "higher", ("detect_period",)),
    "period.us_per_row": ("us", "lower", ("detect_period",)),
    "period.pre_rows_s": ("s", "lower", ("detect_period",)),
    "period.post_rows_s": ("s", "lower", ("detect_period",)),
    "checkpoint.load_s": ("s", "lower", ("load_checkpoint",)),
    "checkpoint.loads": ("count", "lower", ("load_checkpoint",)),
    "checkpoint.save_s": ("s", "lower", ("save_checkpoint",)),
    "checkpoint.saves": ("count", "lower", ("save_checkpoint",)),
    "checkpoint.bytes": ("bytes", "lower", ()),
    "checkpoint.chain_hash_us_per_row": ("us", "lower", ("chain_row_hash",)),
    "checkpoint.rowlog_us_per_row": ("us", "lower", ("RowLog.append",)),
    "checkpoint.rowlog_open_s": ("s", "lower", ("RowLog.__init__",)),
    "folding.regenerate_s": ("s", "lower", ("regenerate_rows",)),
    "folding.regenerate_rows": ("count", "lower", ("regenerate_rows",)),
    "folding.fold_s": ("s", "lower", ("fold", "compact_plane")),
    "matrix.io_s": ("s", "lower", ("parse_matrix_text",
                                   "IncidenceMatrix.to_p1",
                                   "IncidenceMatrix.to_sparse_text")),
    "verify.configuration_s": ("s", "lower", ("verify_configuration",)),
    "verify.plane_s": ("s", "lower", ("is_projective_plane",
                                      "reference_plane")),
    "verify.aut_s": ("s", "lower", ("automorphism_count",)),
    "verify.iso_s": ("s", "lower", ("isomorphic",)),
    "trace.overhead_frac": ("ratio", "lower", ()),
}


def layer_metrics(traces: list[dict], checkpoint_bytes: int) -> dict:
    """Per-layer figures of one traced iteration (all its processes)."""
    spans = [s for t in traces for s in t["spans"]]
    tallies = [c for t in traces for c in t["counters"]]

    def seconds(*names) -> float:
        return sum(s["end"] - s["start"] for s in spans
                   if s["name"] in names) / 1e9

    def spans_named(name) -> int:
        return sum(s["name"] == name for s in spans)

    def per_row_us(name) -> tuple[int, float]:
        calls = sum(c["calls"] for c in tallies if c["name"] == name)
        ns = sum(c["ns"] for c in tallies if c["name"] == name)
        return calls, (ns / calls / 1e3 if calls else 0.0)

    self_ns = 0
    for t in traces:
        main = next(s for s in t["spans"] if s["name"] == "main")
        inner = sum(s["end"] - s["start"] for s in t["spans"]
                    if s["parent"] == main["id"])
        inner += sum(c["ns"] for c in t["counters"]
                     if c["parent"] == main["id"])
        self_ns += main["end"] - main["start"] - inner

    detects = [s for s in spans if s["name"] == "detect_period"]
    period_rows = sum(s["rows"] for s in detects)
    with_rows = [s for s in detects if s["rows"]]
    busy_ns = sum(s["last_row"] - s["first_row"] - s["callback_ns"]
                  for s in with_rows)
    gen_rows, gen_us = per_row_us("GeneratorState.next_row")
    m = {
        "cli.import_s": sum(t["import_ns"] for t in traces) / 1e9,
        "cli.self_s": self_ns / 1e9,
        "generator.rows": gen_rows,
        "generator.us_per_row": gen_us,
        "period.rows": period_rows,
        "period.us_per_row": busy_ns / period_rows / 1e3 if period_rows
        else 0.0,
        "period.pre_rows_s": sum(
            (s["first_row"] if s["rows"] else s["end"]) - s["start"]
            for s in detects) / 1e9,
        "period.post_rows_s": sum(s["end"] - s["last_row"]
                                  for s in with_rows) / 1e9,
        "checkpoint.load_s": seconds("load_checkpoint"),
        "checkpoint.loads": spans_named("load_checkpoint"),
        "checkpoint.save_s": seconds("save_checkpoint"),
        "checkpoint.saves": spans_named("save_checkpoint"),
        "checkpoint.bytes": checkpoint_bytes,
        "checkpoint.chain_hash_us_per_row": per_row_us("chain_row_hash")[1],
        "checkpoint.rowlog_us_per_row": per_row_us("RowLog.append")[1],
        "checkpoint.rowlog_open_s": seconds("RowLog.__init__"),
        "folding.regenerate_s": seconds("regenerate_rows"),
        "folding.regenerate_rows": sum(s.get("rows", 0) for s in spans
                                       if s["name"] == "regenerate_rows"),
        "folding.fold_s": seconds("fold", "compact_plane"),
        "matrix.io_s": seconds("parse_matrix_text", "IncidenceMatrix.to_p1",
                               "IncidenceMatrix.to_sparse_text"),
        "verify.configuration_s": seconds("verify_configuration"),
        "verify.plane_s": seconds("is_projective_plane", "reference_plane"),
        "verify.aut_s": seconds("automorphism_count"),
        "verify.iso_s": seconds("isomorphic"),
    }
    missing = {name for t in traces for name in t["missing"]}
    return {k: v for k, v in m.items()
            if not missing.intersection(LAYERS[k][2])}


# -- a run -------------------------------------------------------------------

def host_record() -> dict:
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                 capture_output=True, text=True, timeout=30)
            commit = out.stdout.strip() if out.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    source = hashlib.sha256()
    for base, dirs, files in os.walk(os.path.join(SRC, "rectfree")):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for name in sorted(files):
            if name.endswith(".py"):
                with open(os.path.join(base, name), "rb") as fh:
                    source.update(name.encode() + b"\0" + fh.read())
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "commit": commit, "source_sha256": source.hexdigest()}


def median_of(samples: list[dict], key: str) -> float:
    return statistics.median(s[key] for s in samples)


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 deadline: float) -> dict:
    """Set up, run iterations while they fit in ``seconds``, summarize."""
    plan = WORKLOADS[name](random.Random(seed))
    env = child_env()
    workdir = os.path.join(WORK, f"{name}-{os.getpid()}")
    detail = {"workload": name, "seed": seed, **host_record(),
              "load1_before": os.getloadavg()[0]}
    try:
        setups = [setup(workdir, env, deadline)
                  for _ in range(SETUP_REPEATS)]
        plain, traced = [], []
        start = time.monotonic()
        while True:
            for traced_run in ((False, True) if trace else (False,)):
                setups.append(setup(workdir, env, deadline))
                (traced if traced_run else plain).append(run_iteration(
                    plan, workdir, env, traced_run, deadline))
            done = plain + traced
            if any(it["killed"] for it in done):
                break
            elapsed = time.monotonic() - start
            if elapsed * (1 + 1 / len(plain)) > seconds or \
                    time.monotonic() + elapsed / len(plain) > deadline:
                break
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    detail["load1_after"] = os.getloadavg()[0]
    done = plain + traced
    attempted = sum(it["attempted"] for it in done)
    failed = sum(it["failed"] for it in done)
    detail.update(iterations=len(plain), traced_iterations=len(traced),
                  setup_s=setups, failed_frac=failed / attempted,
                  samples=[{k: v for k, v in it.items() if k != "traces"}
                           for it in done])
    if plan.rows:
        detail["rows_per_s"] = plan.rows / median_of(plain, "wall_s")
    if trace:
        layers = [layer_metrics(it["traces"], it["checkpoint_bytes"])
                  for it in traced]
        metrics = {k: statistics.median(m[k] for m in layers)
                   for k in layers[0]}
        metrics["trace.overhead_frac"] = (median_of(traced, "wall_s")
                                          / median_of(plain, "wall_s") - 1)
        units = {k: LAYERS[k][0] for k in metrics}
        os.makedirs(WORK, exist_ok=True)
        with open(os.path.join(WORK, f"trace-{name}-seed{seed}.json"), "w",
                  encoding="ascii") as fh:
            json.dump([it["traces"] for it in traced], fh)
    else:
        metrics = {"wall_s": median_of(plain, "wall_s"),
                   "cpu_s": median_of(plain, "cpu_s"),
                   "peak_rss_mb": median_of(plain, "peak_rss_mb"),
                   "setup_s": statistics.median(setups)}
        units = END_TO_END
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": units[k]}
                        for k, v in metrics.items()},
            "detail": detail}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    which = parser.add_mutually_exclusive_group(required=True)
    which.add_argument("--workload", choices=sorted(WORKLOADS))
    which.add_argument("--all", action="store_true",
                       help="run every workload and print one table")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "rectfree", "cli.py")):
        print(f"perfbench: no rectfree sources under {SRC}", file=sys.stderr)
        return 2
    names = sorted(WORKLOADS) if args.all else [args.workload]
    results = {}
    for name in names:
        deadline = time.monotonic() + HARD_LIMIT_S
        result = run_workload(name, args.seed, args.seconds,
                              bool(args.trace), deadline)
        detail = result.pop("detail")
        results[name] = result
        for metric, m in result["metrics"].items():
            print(f"{name} {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name} failed_frac = {detail['failed_frac']:.6g} "
              f"({result['failed']} failed of {result['attempted']} "
              f"commands)")
        print("detail " + json.dumps(detail))
    if args.all:
        return 0 if all(r["correct"] for r in results.values()) else 1
    print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
