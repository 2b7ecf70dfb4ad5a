"""coolsched benchmark: one workload, end to end or traced per layer.

    python3 bench/run.py --workload paper-day --seed 0 --seconds 50 --trace 0

Run from the repository root. The script writes seeded inputs under
.bench_work/, then:

* --trace 0 writes the workload's `instances` input sets from the seed plus
  SPARE_INSTANCES more, times `import coolsched.cli` plus
  `RunConfig.from_file` in SETUP_REPS fresh interpreters (setup_s, the
  median), and runs the six CLI stages in order in one fresh process: once
  on each of the first `instances` input sets, then on the next ones while
  the next repetition is expected to end within --seconds of the start.
  Every stage time is first rescaled to a reference host speed by the
  probes on either side of it (hostspeed.py). Each stage and pipeline time
  is then the mean over an instance's repetitions, and then the mean over
  the instances, since the solvers' work depends on the input (fit-qfr
  varies by up to 30% between seeds). Quality metrics are medians over the
  instances. peak_rss_mb is the process's ru_maxrss after its first
  repetition.
* --trace 1 runs the pipeline on instance 0 once untraced and once with
  every layer wrapped (bench/layertrace.py), each in its own fresh
  process. It reports the per-layer metrics plus the tracing overhead.

Every repetition's outputs are checked (bench/checks.py), and repetitions
of one instance must give identical bytes. The last stdout line is the JSON
result. A run record with every stage time, probe time, output sha256 and
the spans goes to .bench_work/records/.
"""

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import hostspeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")

SETUP_REPS = 5
SPARE_INSTANCES = 2
SETUP_TIMEOUT_S = 30
PIPELINE_TIMEOUT_S = 150

SETUP_CODE = """\
import sys, time
start = time.perf_counter()
import coolsched.cli
from coolsched.config import RunConfig
RunConfig.from_file(sys.argv[1])
print(repr(time.perf_counter() - start))
"""


def child_env():
    """Environment for child interpreters: coolsched from src/, no overrides."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("COOLSCHED_")}
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


def measure_setup(config):
    """Wall seconds of each fresh interpreter, and the probes around them.

    The probes run here, between the interpreters, because importing
    hostspeed in the child would import scipy before the timed import.
    """
    times, probes = [], [hostspeed.probe()]
    for _ in range(SETUP_REPS):
        proc = subprocess.run([sys.executable, "-c", SETUP_CODE, config],
                              env=child_env(), capture_output=True, text=True,
                              timeout=SETUP_TIMEOUT_S, check=True)
        times.append(float(proc.stdout.strip().splitlines()[-1]))
        probes.append(hostspeed.probe())
    return times, probes


def run_pipeline(configs, min_configs, out_root, seconds, traced, result_path):
    argv = [sys.executable, os.path.join(HERE, "pipeline.py")]
    for config in configs:
        argv += ["--config", config]
    argv += ["--min-configs", str(min_configs), "--out-root", out_root,
             "--seconds", str(seconds),
             "--trace", str(int(traced)), "--result", result_path]
    subprocess.run(argv, env=child_env(), timeout=PIPELINE_TIMEOUT_S, check=True)
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def check_reps(reps, checks):
    """Check every repetition; returns (attempted, failed, facts, digests)."""
    attempted = failed = 0
    first = {}
    facts_all, digests, messages = [], [], []
    for rep in reps:
        failures, facts = checks.check_outputs(rep["out"], rep)
        digest = checks.digest_tree(rep["out"]) if os.path.isdir(rep["out"]) else {}
        if rep["config"] not in first:
            first[rep["config"]] = digest
        else:
            for stage, why in checks.check_repeat(first[rep["config"]],
                                                  digest).items():
                failures.setdefault(stage, []).extend(why)
        attempted += len(rep["stages"])
        failed += sum(1 for s in rep["stages"] if s["stage"] in failures)
        for stage, why in failures.items():
            messages.extend(f"{stage}: {m}" for m in why)
        facts_all.append(facts)
        digests.append(digest)
    for message in messages:
        print(f"FAILED {message}")
    return attempted, failed, facts_all, digests


def pipeline_seconds(rep):
    return sum(s["seconds"] for s in rep["stages"])


def put(metrics, name, value, unit):
    metrics[name] = {"value": value, "unit": unit}


def normalized_stages(rep):
    """{stage: wall seconds rescaled by the probes on either side of it}."""
    probes = rep["probe_s"]
    return {s["stage"]: s["seconds"] * hostspeed.factor(probes[i], probes[i + 1])
            for i, s in enumerate(rep["stages"])}


def end_to_end(reps, facts, setup, rss_mb):
    """Times as means and quality as medians over the instances.

    Every time is first rescaled to the reference host speed (hostspeed.py),
    each stage by the probes just before and after it. An instance's time is
    the mean over its repetitions, so that an instance that happened to
    repeat counts once. setup_s is the median over its interpreters.
    """
    med = statistics.median
    by_instance = {}
    for rep, fact in zip(reps, facts):
        by_instance.setdefault(rep["config"], []).append(
            (normalized_stages(rep), fact))

    def timing(seconds):
        """Mean over instances of the mean over the instance's repetitions."""
        return statistics.fmean(
            statistics.fmean(seconds(stages) for stages, _ in runs)
            for runs in by_instance.values())

    metrics = {}
    times, probes = setup
    put(metrics, "setup_s",
        med(t * hostspeed.factor(probes[i], probes[i + 1])
            for i, t in enumerate(times)), "s")
    put(metrics, "pipeline_s", timing(lambda stages: sum(stages.values())), "s")
    for stage in ("fit-qfr", "plan", "simulate"):
        put(metrics, f"{stage.replace('-', '_')}_s",
            timing(lambda stages: stages[stage]), "s")
    put(metrics, "peak_rss_mb", rss_mb, "MB")
    for name, unit in (("planned_cost_usd_per_h", "usd/h"),
                       ("qfr_mdp_saving_pct", "%"),
                       ("qfr_mdp_in_band_pct", "%")):
        values = [runs[0][1][name] for runs in by_instance.values()
                  if name in runs[0][1]]
        put(metrics, name, med(values) if values else None, unit)
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + args.seconds

    if not os.path.isfile(os.path.join(SRC, "coolsched", "cli.py")):
        print(f"error: no coolsched sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import checks
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    run_dir = os.path.join(WORK, tag)
    records = os.path.join(WORK, "records")
    os.makedirs(records, exist_ok=True)
    try:
        instances = (1 if args.trace
                     else workloads.WORKLOADS[args.workload]["instances"])
        spare = 0 if args.trace else SPARE_INSTANCES
        configs = [workloads.write_inputs(
            args.workload, workloads.instance_seed(args.seed, k),
            os.path.join(run_dir, f"instance{k}"))
            for k in range(instances + spare)]
        record = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace}
        if args.trace:
            plain = run_pipeline(configs, 1, os.path.join(run_dir, "plain"), 0,
                                 False, os.path.join(run_dir, "plain.json"))
            traced = run_pipeline(configs, 1, os.path.join(run_dir, "traced"), 0,
                                  True, os.path.join(run_dir, "traced.json"))
            reps = plain["reps"] + traced["reps"]
            attempted, failed, facts, digests = check_reps(reps, checks)
            metrics = traced["layers"]
            untraced_s = pipeline_seconds(plain["reps"][0])
            traced_s = pipeline_seconds(traced["reps"][0])
            put(metrics, "trace.untraced_pipeline_s", untraced_s, "s")
            put(metrics, "trace.traced_pipeline_s", traced_s, "s")
            put(metrics, "trace.overhead_s", traced_s - untraced_s, "s")
            put(metrics, "out.files", len(digests[0]), "count")
            put(metrics, "out.bytes", sum(b for _, b in digests[0].values()),
                "count")
            record["spans"] = traced["spans"]
        else:
            setup = measure_setup(configs[0])
            result = run_pipeline(configs, instances,
                                  os.path.join(run_dir, "timed"),
                                  deadline - time.perf_counter(), False,
                                  os.path.join(run_dir, "timed.json"))
            reps = result["reps"]
            attempted, failed, facts, digests = check_reps(reps, checks)
            metrics = end_to_end(reps, facts, setup, result["peak_rss_mb"])
            record["setup_s"], record["setup_probe_s"] = setup
        record["reps"] = [
            {"instance": configs.index(rep["config"]),
             "stages": {s["stage"]: [s["seconds"], s["rc"]]
                        for s in rep["stages"]},
             "probe_s": rep.get("probe_s"),
             "facts": fact,
             "sha256": {name: sha for name, (sha, _) in digest.items()},
             "bytes": {name: size for name, (_, size) in digest.items()}}
            for rep, fact, digest in zip(reps, facts, digests)]
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
    record["metrics"] = metrics
    with open(os.path.join(records, f"{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    print(f"{args.workload} seed {args.seed}: {len(reps)} pipeline run(s), "
          f"{attempted - failed}/{attempted} operations passed; decisions per "
          f"controller {facts[0].get('decisions')}; output bytes "
          f"{sum(record['reps'][0]['bytes'].values())}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']} {entry['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
