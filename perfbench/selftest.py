"""Self-test of the benchmark's output checks.

Each check runs on real outputs of this build twice: against the true
reference it must pass, and against a deliberately corrupted reference it
must count failed runs. Run it as `python3 perfbench/run.py --self-test`.
"""

import copy
import json


def _flip(data):
    return bytes([data[0] ^ 1]) + data[1:]


def _bump_offered(report):
    run = json.loads(report)
    run["metrics"]["packets_offered"] += 1
    return json.dumps(run)


def self_test(bench):
    exes = bench.build()
    harness = exes[0]
    bench.WORK.mkdir(parents=True, exist_ok=True)
    ref = bench.load_reference()
    results = []

    def expect(name, failed, want):
        ok = failed == want
        results.append(ok)
        print(f"{'PASS' if ok else 'FAIL'}  {name}: {failed} failed runs "
              f"(expected {want})")

    # paper_pipeline: one real cold sweep_all run.
    rep = bench.sweep_once(exes, "selftest")
    digests, weights = bench.pipeline_refs(ref)
    expect("pipeline vs true reference",
           bench.check_pipeline(rep, digests, weights)[0], 0)

    bad = dict(weights)
    name = sorted(bad)[0]
    bad[name] = _flip(bad[name])
    expect(f"pipeline vs corrupted {name}",
           bench.check_pipeline(rep, digests, bad)[0],
           bench.GATHER_RUNS_PER_MODEL)

    bad_digests = list(digests)
    bad_digests[7] = "0" * 16
    expect("pipeline vs corrupted report digest",
           bench.check_pipeline(rep, bad_digests, weights)[0], 1)

    # The drain check's reference is the offered count; corrupt it and
    # leave the digest check out so only the drain check can fire.
    undrained = copy.deepcopy(rep)
    undrained["reports"][3] = _bump_offered(undrained["reports"][3])
    expect("pipeline vs corrupted offered count",
           bench.check_pipeline(undrained, None, weights)[0], 1)

    repeat = copy.deepcopy(rep)
    repeat["reports"][11] = _bump_offered(repeat["reports"][11])
    expect("pipeline repetitions, consistent", bench.check_repeats([rep, rep]), 0)
    expect("pipeline repetitions, one differs",
           bench.check_repeats([rep, repeat]), 1)

    crashed = dict(rep, exit=1)
    expect("pipeline with a nonzero sweep_all exit",
           bench.check_pipeline(crashed, digests, weights)[0],
           bench.SWEEP_JOBS)

    names = sorted(rep["weights"])
    in_process = {"rep": 1, "weight_files": names,
                  "weight_texts": [rep["weights"][n].decode() for n in names],
                  "batch_reports": list(rep["reports"])}
    expect("in-process pipeline vs untraced",
           bench.check_inprocess(in_process, rep)[0], 0)
    bad_run = copy.deepcopy(in_process)
    bad_run["batch_reports"][20] = _bump_offered(bad_run["batch_reports"][20])
    expect("in-process pipeline vs corrupted batch report",
           bench.check_inprocess(bad_run, rep)[0], 1)
    bad_run = copy.deepcopy(in_process)
    bad_run["weight_texts"][0] = "0" + bad_run["weight_texts"][0]
    expect("in-process pipeline vs corrupted weights",
           bench.check_inprocess(bad_run, rep)[0],
           bench.GATHER_RUNS_PER_MODEL)

    jobs = {"job_reports": list(rep["reports"])}
    expect("sweep jobs alone vs untraced",
           bench.check_jobs_alone(jobs, rep)[0], 0)
    bad_jobs = {"job_reports": list(rep["reports"])}
    bad_jobs["job_reports"][30] = _bump_offered(bad_jobs["job_reports"][30])
    expect("sweep jobs alone vs corrupted job report",
           bench.check_jobs_alone(bad_jobs, rep)[0], 1)

    # Mesh workloads: two real repetitions each at seed 0.
    mesh_reps = {}
    for workload in ("dozznoc_mesh16", "sharded_mesh32"):
        reps = bench.harness_reps(harness, workload, 0, 0, False,
                                  min_reps=2)
        mesh_reps[workload] = reps
        expect(f"{workload} vs true reference",
               bench.check_mesh(workload, 0, reps, ref)[0], 0)
        bad_ref = copy.deepcopy(ref)
        bad_ref[workload]["0"] = "0" * 16
        expect(f"{workload} vs corrupted reference digest",
               bench.check_mesh(workload, 0, reps, bad_ref)[0], 2)
        differing = copy.deepcopy(reps)
        differing[1]["report"] = _bump_offered(differing[1]["report"])
        expect(f"{workload} repetitions, one differs",
               bench.check_mesh(workload, 0, differing, {})[0], 1)

    undrained = copy.deepcopy(mesh_reps["dozznoc_mesh16"][:1])
    undrained[0]["report"] = _bump_offered(undrained[0]["report"])
    expect("dozznoc_mesh16 vs corrupted offered count",
           bench.check_mesh("dozznoc_mesh16", 0, undrained, {})[0], 1)

    print(f"self-test: {sum(results)} of {len(results)} checks behaved")
    return 0 if all(results) else 1
