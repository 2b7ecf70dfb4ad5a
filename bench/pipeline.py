"""One workload's pipeline in a fresh process: the six CLI stages in order.

run.py starts this script so that the process's peak RSS belongs to the
workload alone:

    python3 bench/pipeline.py --config C0 [--config C1 ...] --min-configs K \\
        --out-root D --seconds S --trace 0|1 --result R.json

With --trace 0 it runs the pipeline on the first K configs, then on the
next ones in turn while the next repetition is expected to end within S
seconds; after the last config it starts again from the first. Each
repetition writes its own output directory, and the host-speed probe
(hostspeed.py) is timed before its first stage and after each stage. With
--trace 1 it runs the pipeline once on the first config with every layer
wrapped by layertrace.Tracer. The result file holds each stage's wall
time, exit code and stdout, each repetition's probe times, the process's
peak RSS after the first repetition, and for a traced run the per-layer
metrics and spans.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

from coolsched import cli  # noqa: E402

import hostspeed  # noqa: E402
from workloads import STAGES  # noqa: E402


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def run_stage(stage, config, out, call):
    """Time one stage; a crash is recorded as a failed exit, not raised."""
    argv = [stage, "--config", config, "--out", out]
    buf = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(buf):
        try:
            rc = call(stage, argv)
        except Exception:  # the benchmark must report the failure and go on
            traceback.print_exc()
            rc = -1
    seconds = time.perf_counter() - start
    return {"stage": stage, "seconds": seconds, "rc": rc,
            "stdout": buf.getvalue()}


def untraced(stage, argv):
    return cli.main(argv)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--config", action="append", required=True)
    parser.add_argument("--min-configs", type=int, default=1)
    parser.add_argument("--out-root", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--result", required=True)
    args = parser.parse_args()

    result = {"reps": []}
    if args.trace:
        from layertrace import Tracer
        tracer = Tracer()
        tracer.install()
        out = os.path.join(args.out_root, "traced")
        stages, rss = [], {}
        for stage in STAGES:
            stages.append(run_stage(stage, args.config[0], out, tracer.stage))
            rss[stage] = peak_rss_mb()
        tracer.restore()
        result["reps"].append({"config": args.config[0], "out": out,
                               "stages": stages})
        result["layers"] = tracer.summary(rss)
        result["spans"] = tracer.span_records()
    else:
        start = time.perf_counter()
        while True:
            rep = len(result["reps"])
            config = args.config[rep % len(args.config)]
            out = os.path.join(args.out_root, f"rep{rep}")
            stages, probe_s = [], [hostspeed.probe()]
            for stage in STAGES:
                stages.append(run_stage(stage, config, out, untraced))
                probe_s.append(hostspeed.probe())
            result["reps"].append({"config": config, "out": out,
                                   "stages": stages, "probe_s": probe_s})
            if rep == 0:
                result["peak_rss_mb"] = peak_rss_mb()
            elapsed = time.perf_counter() - start
            if rep + 1 >= args.min_configs \
                    and elapsed + elapsed / (rep + 1) > args.seconds:
                break
    result.setdefault("peak_rss_mb", peak_rss_mb())
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
