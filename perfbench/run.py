#!/usr/bin/env python3
"""Repository benchmark of the DozzNoC simulator.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record-reference

Workloads (perfbench/README.md says why each exists and what it stresses):

  paper_pipeline  the sweep_all binary run cold: 54 training-gather runs,
                  3 ridge fits, then the 50-job policy sweep on the 8x8 mesh
  sharded_mesh32  Baseline over a fixed window on the 32x32 mesh, 4 shards
  dozznoc_mesh16  one run-to-drain of DozzNoC on the 16x16 mesh (x264); not
                  in BENCHMARK.json, because its spread on a noisy host is
                  too close to the largest bound

The first call builds the repository's own CMake project (only the targets
the benchmark needs) under .bench_build/. A run repeats its workload until
--seconds have passed and reports medians over the repetitions. With
--trace 0 the last stdout line holds the end-to-end metrics; with
--trace 1 a separately traced run gives the per-layer metrics. Every
simulated output is checked; a run whose output is wrong counts as failed.
"""

import argparse
import hashlib
import json
import os
import platform
import shlex
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
BUILD = ROOT / ".bench_build"
CMAKE_DIR = BUILD / "cmake"
WORK = BUILD / "work"
RESULTS = BUILD / "results"
REFERENCE = BENCH_DIR / "reference.json"

THREADS = 4  # thread budget of every workload
PIPELINE_RUNS = 104  # 54 gather runs + 50 sweep jobs
GATHER_RUNS_PER_MODEL = 18  # (6 training + 3 validation traces) x 2 loads
SWEEP_JOBS = 50
PIPELINE_MIN_REPS = 2
RECORD_SEEDS = range(32)

WORKLOADS = ("paper_pipeline", "dozznoc_mesh16", "sharded_mesh32")

# DozzNoC vs Baseline, IPDPS 2020 paper (Fig. 8 averages).
PAPER = {
    "sim.static_savings_pct": 53.0,
    "sim.dynamic_savings_pct": 25.0,
    "sim.throughput_loss_pct": 7.0,
}

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "sim.energy_uj": "uJ",
}

# End-to-end figures a workload prints but BENCHMARK.json does not gate,
# because they are not defined on every workload (perfbench/README.md).
EXTRA_UNITS = {
    "edge_steps_per_s": "edges/s",
    "sim.drain_us": "us",
    "sim.static_savings_pct": "%",
    "sim.dynamic_savings_pct": "%",
    "sim.throughput_loss_pct": "%",
}

LAYER_UNITS = {
    "trafficgen.trace_s": "s",
    "trafficgen.entries": "count",
    "training.gather_s": "s",
    "training.gather_busy_cores": "cores",
    "training.gather_runs": "count",
    "ml.fit_s": "s",
    "ml.rows": "count",
    "batch.sweep_s": "s",
    "batch.sweep_busy_cores": "cores",
    "batch.job_s_max": "s",
    "batch.job_s_sum": "s",
    "batch.sched_efficiency": "ratio",
    "noc.construct_s": "s",
    "noc.run_s": "s",
    "noc.edge_steps": "count",
    "noc.kernel_events": "count",
    "noc.steps_per_event": "ratio",
    "noc.ns_per_edge_step": "ns",
    "noc.epochs": "count",
    "noc.epoch_ms_p50": "ms",
    "noc.epoch_ms_p90": "ms",
    "noc.shards_used": "count",
    "noc.barrier_stall": "ratio",
    "noc.busy_cores": "cores",
    "noc.gatings": "count",
    "noc.wakeups": "count",
    "noc.premature_wakeups": "count",
    "noc.mode_switches": "count",
    "noc.flits_delivered": "count",
    "core.select_mode_calls": "count",
    "core.select_mode_s": "s",
    "core.may_gate_calls": "count",
    "trace.overhead_s": "s",
}


class BenchError(Exception):
    """The benchmark could not run; no result is printed."""


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def digest(report):
    return hashlib.sha256(report.encode()).hexdigest()[:16]


def median(values):
    return statistics.median(values)


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def percentile(values, p):
    ordered = sorted(values)
    if not ordered:
        return 0.0
    k = (len(ordered) - 1) * p / 100.0
    lo = int(k)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (k - lo)


def clean_env(**extra):
    """The caller's environment without any DOZZ_* knob, plus `extra`."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("DOZZ_")}
    env.update(extra)
    return env


# --- Build -----------------------------------------------------------------

def build():
    """Configures (once) and builds the harness and sweep_all; returns their
    paths. Build output goes to stderr so stdout stays the result."""
    if not (ROOT / "src").is_dir() or not (ROOT / "CMakeLists.txt").is_file():
        raise BenchError(f"no DozzNoC source tree at {ROOT}")
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        cmd = ["cmake", "-S", str(BENCH_DIR), "-B", str(CMAKE_DIR)]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            shutil.rmtree(CMAKE_DIR, ignore_errors=True)
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", str(CMAKE_DIR), "-j", str(THREADS), "--target",
           "perfbench_harness", "sweep_all"]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return CMAKE_DIR / "perfbench_harness", CMAKE_DIR / "repo/examples/sweep_all"


def host_descriptor(command):
    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    compiler = build_type = "unknown"
    cache = CMAKE_DIR / "CMakeCache.txt"
    if cache.is_file():
        for line in cache.read_text().splitlines():
            if line.startswith("CMAKE_CXX_COMPILER:"):
                path = line.split("=", 1)[1]
                out = subprocess.run([path, "--version"], capture_output=True,
                                     text=True).stdout.splitlines()
                compiler = out[0] if out else path
            if line.startswith("CMAKE_BUILD_TYPE:"):
                # The repository's CMakeLists defaults an empty type.
                build_type = line.split("=", 1)[1] or "RelWithDebInfo"
    commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                            capture_output=True, text=True)
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "kernel": platform.release(),
        "compiler": compiler,
        "build_type": build_type,
        "commit": commit.stdout.strip() if commit.returncode == 0
                  else "unknown (not a git checkout)",
        "source_sha256": source_fingerprint(),
        "command": shlex.join(command),
    }


def source_fingerprint():
    """Hash of the sources the benchmark builds, for checkouts without git."""
    h = hashlib.sha256()
    for top in ("CMakeLists.txt", "src", "examples", "perfbench"):
        path = ROOT / top
        files = [path] if path.is_file() else sorted(path.rglob("*"))
        for f in files:
            if f.is_file() and "__pycache__" not in f.parts:
                h.update(str(f.relative_to(ROOT)).encode())
                h.update(f.read_bytes())
    return h.hexdigest()[:16]


# --- Running programs ------------------------------------------------------

def run_program(cmd, env, stdout_path):
    """Runs `cmd` to completion with stdout to a file. Returns (exit code,
    stderr text); the child is killed if this process is interrupted."""
    with open(stdout_path, "wb") as out:
        proc = subprocess.Popen(cmd, stdout=out, stderr=subprocess.PIPE,
                                env=env, cwd=ROOT)
        try:
            err = proc.stderr.read()
            proc.wait()
        finally:
            if proc.returncode is None:
                proc.kill()
                proc.wait()
            proc.stderr.close()
    return proc.returncode, err.decode(errors="replace")


def load_reference():
    if REFERENCE.is_file():
        return json.loads(REFERENCE.read_text())
    return {}


# --- paper_pipeline ---------------------------------------------------------

def sweep_once(exes, tag):
    """One cold sweep_all run with a private, empty weight cache, launched
    and timed by the harness's spawn subcommand."""
    harness, sweep_exe = exes
    cache = WORK / f"cache-{tag}"
    shutil.rmtree(cache, ignore_errors=True)
    out_path = WORK / f"sweep-{tag}.jsonl"
    spawn_path = WORK / f"spawn-{tag}.json"
    env = clean_env(DOZZ_CACHE_DIR=str(cache), DOZZ_THREADS=str(THREADS))
    code, err = run_program(
        [str(harness), "spawn", "--stdout", str(out_path), "--",
         str(sweep_exe), "--threads", str(THREADS)],
        env, spawn_path)
    spawn = json.loads(spawn_path.read_text()) if code == 0 else {}
    if code != 0 or spawn["exit"] != 0:
        log(err)
    reports = out_path.read_text().splitlines() if out_path.is_file() else []
    weights = {f.name: f.read_bytes() for f in sorted(cache.glob("weights_*"))}
    shutil.rmtree(cache, ignore_errors=True)
    for path in (out_path, spawn_path):
        path.unlink(missing_ok=True)
    if not spawn:
        raise BenchError(f"harness spawn exited {code}")
    return {
        "exit": spawn["exit"],
        "wall_s": spawn["wall_s"],
        "setup_s": spawn["first_line_s"] if spawn["first_line_s"] >= 0
                   else spawn["wall_s"],
        "peak_rss_mb": spawn["peak_rss_mb"],
        "reports": reports,
        "weights": weights,
    }


def check_pipeline(rep, ref_digests, ref_weights):
    """Failed runs among the 104 of one pipeline run: a sweep job fails
    when its report is missing, differs from the reference digest or did
    not drain, and every sweep job fails when sweep_all exits nonzero; a
    model's 18 gather runs fail when its trained weights are not
    byte-equal to the reference weights."""
    failed = 0
    notes = []
    reports = rep["reports"]
    for i in range(SWEEP_JOBS):
        if i >= len(reports):
            failed += 1
            continue
        problems = []
        if ref_digests is not None and digest(reports[i]) != ref_digests[i]:
            problems.append("digest differs from reference")
        try:
            m = json.loads(reports[i])["metrics"]
            if m["packets_delivered"] != m["packets_offered"]:
                problems.append("delivered != offered")
        except (ValueError, KeyError):
            problems.append("unparseable report")
        if problems:
            failed += 1
            notes.append(f"sweep job {i}: " + ", ".join(problems))
    if rep["exit"] != 0:
        # A worker exception or a crash after the last report: no job's
        # output can be trusted.
        failed = SWEEP_JOBS
        notes.append(f"sweep_all exited {rep['exit']}")
    for name, expected in ref_weights.items():
        if rep["weights"].get(name) != expected:
            failed += GATHER_RUNS_PER_MODEL
            notes.append(f"trained {name} differs from the committed weights")
    if len(reports) > SWEEP_JOBS:
        notes.append(f"{len(reports)} report lines, expected {SWEEP_JOBS}")
        failed += 1
    return min(failed, PIPELINE_RUNS), notes


def check_repeats(reps):
    """Runs whose output differs from the first repetition's."""
    failed = 0
    first = reps[0]
    for rep in reps[1:]:
        failed += sum(a != b for a, b in zip(first["reports"], rep["reports"]))
        for name in set(first["weights"]) | set(rep["weights"]):
            if first["weights"].get(name) != rep["weights"].get(name):
                failed += GATHER_RUNS_PER_MODEL
    return failed


def committed_weights(names):
    return {n: (ROOT / "dozz_cache" / n).read_bytes() for n in names}


def savings(reports):
    """DozzNoC vs Baseline, mean over the 10 test runs, as
    write_comparison_report defines the three figures."""
    runs = [json.loads(r) for r in reports]
    by = {(r["policy"], r["trace"]): r["metrics"] for r in runs}
    static, dynamic, loss, energy = [], [], [], 0.0
    for (policy, trace), m in by.items():
        if policy != "DozzNoC":
            continue
        b = by[("Baseline", trace)]
        static.append((1 - m["static_energy_j"] / b["static_energy_j"]) * 100)
        dynamic.append((1 - (m["dynamic_energy_j"] + m["ml_energy_j"]) /
                        b["dynamic_energy_j"]) * 100)
        loss.append((1 - m["throughput_flits_per_ns"] /
                     b["throughput_flits_per_ns"]) * 100)
        energy += (m["static_energy_j"] + m["dynamic_energy_j"] +
                   m["ml_energy_j"]) * 1e6
    return {
        "sim.static_savings_pct": statistics.fmean(static),
        "sim.dynamic_savings_pct": statistics.fmean(dynamic),
        "sim.throughput_loss_pct": statistics.fmean(loss),
        "sim.energy_uj": energy,
    }


def pipeline_refs(ref):
    pipe = ref.get("paper_pipeline", {})
    return pipe.get("reports"), committed_weights(pipe.get("weights", []))


def run_pipeline(exes, args):
    harness = exes[0]
    ref_digests, ref_weights = pipeline_refs(load_reference())
    # A repetition starts only if it is likely to end within --seconds.
    reps = []
    deadline = time.perf_counter() + args.seconds
    while len(reps) < PIPELINE_MIN_REPS or \
            time.perf_counter() + reps[-1]["wall_s"] <= deadline:
        reps.append(sweep_once(exes, f"{os.getpid()}-{len(reps)}"))
        if args.trace:
            break
    failed, notes = 0, []
    for rep in reps:
        f, n = check_pipeline(rep, ref_digests, ref_weights)
        failed += f
        notes += n
    failed += check_repeats(reps)
    attempted = PIPELINE_RUNS * len(reps)
    try:
        sim = savings(reps[0]["reports"])
    except (ValueError, KeyError, ZeroDivisionError, statistics.StatisticsError):
        sim = {}  # the checks above already count these runs as failed
    summary = {
        "reps": [{k: r[k] for k in ("wall_s", "setup_s", "peak_rss_mb")}
                 for r in reps],
        "sim": sim,
    }
    if not args.trace:
        metrics = {k: median([r[k] for r in reps])
                   for k in ("wall_s", "setup_s", "peak_rss_mb")}
        metrics["sim.energy_uj"] = sim.get("sim.energy_uj", 0.0)
        extra = {k: v for k, v in sim.items() if k in PAPER}
        return attempted, failed, notes, metrics, extra, summary

    # Traced: the pipeline in-process, untraced and traced repetitions
    # interleaved, then every sweep job alone; all are checked against the
    # untraced sweep_all run. About two cold sweeps' time is left for the
    # jobs run alone. At least two repetitions of each kind, so the tracing
    # overhead is a difference of medians even when the host is slow.
    spans = RESULTS / f"spans-paper_pipeline-seed{args.seed}.json"
    budget = deadline - time.perf_counter() - 2 * reps[0]["wall_s"]
    lines = run_harness(
        [str(harness), "paper_pipeline", "--seconds", f"{max(budget, 0):.3f}",
         "--min-reps", "4", "--trace", "1", "--spans", str(spans)],
        clean_env(DOZZ_THREADS=str(THREADS)))
    runs = [line for line in lines if "rep" in line]
    jobs = lines[-1]
    for run in runs:
        f, n = check_inprocess(run, reps[0])
        failed += f
        notes += n
    f, n = check_jobs_alone(jobs, reps[0])
    failed += f
    notes += n
    attempted += PIPELINE_RUNS * len(runs) + SWEEP_JOBS
    traced = [r for r in runs if r["traced"]]

    def med(key):
        return median([r[key] for r in traced])

    job_s = jobs["job_s"]
    layers = zero_layers()
    layers.update({
        "trafficgen.trace_s": jobs["trace_s"],
        "trafficgen.entries": jobs["trace_entries"],
        "training.gather_s": med("gather_s"),
        "training.gather_busy_cores": med("gather_busy_cores"),
        "training.gather_runs": traced[0]["gather_runs"],
        "ml.fit_s": med("fit_s"),
        "ml.rows": traced[0]["rows"],
        "batch.sweep_s": med("sweep_s"),
        "batch.sweep_busy_cores": med("sweep_busy_cores"),
        "batch.job_s_max": max(job_s),
        "batch.job_s_sum": sum(job_s),
        "batch.sched_efficiency":
            max(max(job_s), sum(job_s) / THREADS) / med("sweep_s"),
        "core.select_mode_calls": jobs["select_mode_calls"],
        "core.select_mode_s": jobs["select_mode_s"],
        "core.may_gate_calls": jobs["may_gate_calls"],
        "trace.overhead_s": med("pipeline_s") - median(
            [r["pipeline_s"] for r in runs if not r["traced"]]),
    })
    layers.update(noc_layers(jobs, jobs["run_s"], jobs["construct_s"],
                             jobs["epoch_ms"],
                             [json.loads(r)["metrics"]
                              for r in jobs["job_reports"]]))
    summary["in_process"] = [
        {k: v for k, v in r.items() if not isinstance(v, list)} for r in runs]
    summary["jobs_alone"] = {k: v for k, v in jobs.items()
                             if not isinstance(v, list)}
    return attempted, failed, notes, layers, {}, summary


def report_mismatches(got, want):
    """Sweep jobs whose report in `got` is missing or differs from `want`."""
    return [i for i in range(SWEEP_JOBS)
            if i >= len(got) or i >= len(want) or got[i] != want[i]]


def check_inprocess(run, untraced):
    """An in-process pipeline repetition must reproduce the untraced
    sweep_all run: the same trained weights and the same 50 reports."""
    failed, notes = 0, []
    weights = {n: w.encode() for n, w in
               zip(run["weight_files"], run["weight_texts"])}
    for name in set(untraced["weights"]) | set(weights):
        if untraced["weights"].get(name) != weights.get(name):
            failed += GATHER_RUNS_PER_MODEL
            notes.append(f"in-process rep {run['rep']}: weights {name} "
                         "differ from the untraced run")
    for i in report_mismatches(run["batch_reports"], untraced["reports"]):
        failed += 1
        notes.append(f"in-process rep {run['rep']}: sweep job {i} differs "
                     "from the untraced run")
    return failed, notes


def check_jobs_alone(jobs, untraced):
    """Each sweep job run alone must give the untraced run's report."""
    bad = report_mismatches(jobs["job_reports"], untraced["reports"])
    return len(bad), [f"sweep job {i} alone differs from the untraced run"
                      for i in bad]


# --- Mesh workloads ---------------------------------------------------------

def run_harness(cmd, env):
    """Runs the harness; returns its stdout lines parsed as JSON."""
    out_path = WORK / f"harness-{os.getpid()}.jsonl"
    code, err = run_program(cmd, env, out_path)
    lines = out_path.read_text().splitlines()
    out_path.unlink()
    if code != 0 or not lines:
        log(err)
        raise BenchError(f"harness {cmd[1]} exited {code}")
    return [json.loads(line) for line in lines]


def harness_reps(harness, workload, seed, seconds, trace, min_reps=3,
                 spans=None):
    cmd = [str(harness), workload, "--seed", str(seed), "--seconds",
           str(seconds), "--min-reps", str(min_reps), "--trace",
           "1" if trace else "0"]
    if spans is not None:
        cmd += ["--spans", str(spans)]
    return run_harness(cmd, clean_env())


def check_mesh(workload, seed, reps, ref):
    """Failed runs among the repetitions: a report that differs from the
    seed's reference digest or from the first repetition, or a drained
    run that did not deliver every packet it offered."""
    want = ref.get(workload, {}).get(str(seed))
    failed, notes = 0, []
    for rep in reps:
        problems = []
        d = digest(rep["report"])
        if want is not None and d != want:
            problems.append(f"digest {d} != reference {want}")
        if d != digest(reps[0]["report"]):
            problems.append("report differs from repetition 0")
        m = json.loads(rep["report"])["metrics"]
        if workload == "dozznoc_mesh16" and \
                m["packets_delivered"] != m["packets_offered"]:
            problems.append("delivered != offered after drain")
        if problems:
            failed += 1
            notes.append(f"rep {rep['rep']}: " + ", ".join(problems))
    return failed, notes


def run_mesh(exes, args):
    harness = exes[0]
    spans = RESULTS / f"spans-{args.workload}-seed{args.seed}.json" \
        if args.trace else None
    reps = harness_reps(harness, args.workload, args.seed, args.seconds,
                        args.trace, spans=spans)
    failed, notes = check_mesh(args.workload, args.seed, reps,
                               load_reference())
    untraced = [r for r in reps if not r["traced"]]
    traced = [r for r in reps if r["traced"]]
    m = json.loads(reps[0]["report"])["metrics"]
    wall = median([r["wall_s"] for r in untraced])
    sim = {
        "sim.energy_uj": (m["static_energy_j"] + m["dynamic_energy_j"] +
                          m["ml_energy_j"]) * 1e6,
        "sim.drain_us": m["sim_ns"] / 1e3,
    }
    summary = {"reps": [{k: v for k, v in r.items()
                         if k not in ("report", "epoch_ms")} for r in reps]}

    if not args.trace:
        # The high-water mark after the first repetition: the footprint of
        # one run of the workload, free of what later repetitions leave
        # behind in the allocator.
        metrics = {
            "wall_s": wall,
            "setup_s": median([r["setup_s"] for r in untraced]),
            "peak_rss_mb": reps[0]["peak_rss_mb"],
            "sim.energy_uj": sim["sim.energy_uj"],
        }
        extra = {"edge_steps_per_s": reps[0]["edge_steps"] / wall}
        if args.workload == "dozznoc_mesh16":
            extra["sim.drain_us"] = sim["sim.drain_us"]
        return len(reps), failed, notes, metrics, extra, summary

    layers = zero_layers()
    layers["trafficgen.trace_s"] = median([r["trace_s"] for r in traced])
    layers["trafficgen.entries"] = traced[0]["trace_entries"]
    run_s = median([r["wall_s"] for r in traced])
    epoch_ms = [x for r in traced for x in r["epoch_ms"]]
    layers.update(noc_layers(traced[0], run_s,
                             median([r["construct_s"] for r in traced]),
                             epoch_ms, [m]))
    layers["noc.shards_used"] = traced[0]["shards_used"]
    layers["noc.barrier_stall"] = median([r["barrier_stall"] for r in traced])
    layers["noc.busy_cores"] = median([r["busy_cores"] for r in traced])
    if "select_mode_calls" in traced[0]:
        layers["core.select_mode_calls"] = traced[0]["select_mode_calls"]
        layers["core.select_mode_s"] = median([r["select_mode_s"]
                                               for r in traced])
        layers["core.may_gate_calls"] = traced[0]["may_gate_calls"]
    layers["trace.overhead_s"] = run_s - wall
    return len(reps), failed, notes, layers, {}, summary


# --- Per-layer helpers -----------------------------------------------------

def zero_layers():
    """Every per-layer metric; a layer the workload does not reach stays 0."""
    return {name: 0 for name in LAYER_UNITS}


def noc_layers(counters, run_s, construct_s, epoch_ms, metrics):
    edges = counters["edge_steps"]
    events = counters["kernel_events"]
    return {
        "noc.construct_s": construct_s,
        "noc.run_s": run_s,
        "noc.edge_steps": edges,
        "noc.kernel_events": events,
        "noc.steps_per_event": edges / events if events else 0.0,
        "noc.ns_per_edge_step": 1e9 * run_s / edges if edges else 0.0,
        "noc.epochs": counters["epochs"],
        "noc.epoch_ms_p50": percentile(epoch_ms, 50),
        "noc.epoch_ms_p90": percentile(epoch_ms, 90),
        "noc.shards_used": counters["shards_used"],
        "noc.busy_cores": counters["busy_cores"],
        "noc.gatings": sum(m["gatings"] for m in metrics),
        "noc.wakeups": sum(m["wakeups"] for m in metrics),
        "noc.premature_wakeups": sum(m["premature_wakeups"] for m in metrics),
        "noc.mode_switches": sum(m["mode_switches"] for m in metrics),
        "noc.flits_delivered": sum(m["flits_delivered"] for m in metrics),
    }


# --- Entry points ----------------------------------------------------------

def print_report(args, host, attempted, failed, notes, metrics, extra,
                 summary):
    print(f"workload {args.workload}  seed {args.seed}  "
          f"trace {int(args.trace)}  host {json.dumps(host)}")
    if not args.trace:
        for key in ("wall_s", "setup_s"):
            values = [r[key] for r in summary["reps"]
                      if not r.get("traced", 0)]
            q1, q3 = quartiles(values)
            print(f"  {key:<26} median {median(values):.6f} s  "
                  f"q1 {q1:.6f}  q3 {q3:.6f}  over {len(values)} reps")
    units = LAYER_UNITS if args.trace else E2E_UNITS
    for name, value in list(metrics.items()) + list(extra.items()):
        unit = units.get(name) or EXTRA_UNITS[name]
        line = f"  {name:<26} {value:>16.6f} {unit}"
        if name in PAPER:
            line += (f"   paper {PAPER[name]:.1f}  model error "
                     f"{value - PAPER[name]:+.2f} points")
        elif name.startswith("sim."):
            line += "   no paper figure (unvalidated)"
        print(line)
    print(f"  runs_failed {failed} of runs_attempted {attempted}")
    for note in notes[:20]:
        print(f"  check failed: {note}")


def run_workload(args):
    exes = build()
    command = [sys.executable, "perfbench/run.py"] + sys.argv[1:]
    host = host_descriptor(command)
    WORK.mkdir(parents=True, exist_ok=True)
    RESULTS.mkdir(parents=True, exist_ok=True)
    runner = run_pipeline if args.workload == "paper_pipeline" else run_mesh
    attempted, failed, notes, metrics, extra, summary = runner(exes, args)
    print_report(args, host, attempted, failed, notes, metrics, extra, summary)
    result_file = RESULTS / (f"{args.workload}-seed{args.seed}-"
                             f"trace{int(args.trace)}.json")
    result_file.write_text(json.dumps({
        "host": host, "workload": args.workload, "seed": args.seed,
        "attempted": attempted, "failed": failed, "notes": notes,
        "metrics": metrics, "extra": extra, "summary": summary}, indent=1))
    units = LAYER_UNITS if args.trace else E2E_UNITS
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()},
    }))


def record_reference():
    """Writes reference.json from the current build: the paper pipeline's
    50 report digests plus the names of the committed weights it must
    reproduce, and mesh report digests for RECORD_SEEDS."""
    exes = build()
    harness = exes[0]
    WORK.mkdir(parents=True, exist_ok=True)
    rep = sweep_once(exes, f"{os.getpid()}-ref")
    if rep["exit"] != 0 or len(rep["reports"]) != SWEEP_JOBS:
        raise BenchError("sweep_all failed while recording the reference")
    ref = {"paper_pipeline": {
        "weights": sorted(rep["weights"]),
        "reports": [digest(r) for r in rep["reports"]]}}
    for name in ref["paper_pipeline"]["weights"]:
        if rep["weights"][name] != committed_weights([name])[name]:
            raise BenchError(f"{name} does not match dozz_cache/{name}")
    for workload in ("dozznoc_mesh16", "sharded_mesh32"):
        ref[workload] = {}
        for seed in RECORD_SEEDS:
            reps = harness_reps(harness, workload, seed, 0, False,
                                min_reps=1)
            ref[workload][str(seed)] = digest(reps[0]["report"])
            log(f"{workload} seed {seed}: {ref[workload][str(seed)]}")
    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    log(f"wrote {REFERENCE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true",
                        help="show that every output check fails on a "
                             "corrupted reference")
    parser.add_argument("--record-reference", action="store_true",
                        help="rewrite perfbench/reference.json from this "
                             "build")
    args = parser.parse_args()
    try:
        if args.self_test:
            from selftest import self_test
            return self_test(sys.modules[__name__])
        if args.record_reference:
            record_reference()
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if args.seed < 0:
            parser.error("--seed must be >= 0")
        run_workload(args)
        return 0
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
