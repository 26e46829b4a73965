#!/usr/bin/env python3
"""Build the perfbench command from source and run one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds into .bench_build/ (the Go
build cache included, so nothing is written outside the checkout),
runs the workload, and prints the result as the last line of standard
output. With --trace 1 it first runs the workload untraced with the same
seed, then traced, which reports the tracing overhead against the
untraced run; for tasters_cold the two runs' report digests must match.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "perfbench")
# With --trace 1 two runs must end inside the 180 s every invocation
# is allowed.
RUN_TIMEOUT_S = 85


def build():
    tmp = os.path.join(BUILD, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        # The go command keeps its config and telemetry under here.
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTMPDIR=tmp,
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOFLAGS="-mod=readonly",
        GOWORK="off",
    )
    subprocess.run(["go", "build", "-o", BINARY, "./perfbench"],
                   cwd=ROOT, env=env, check=True, stdout=sys.stderr)


def run(args, base=None):
    """Run the workload untraced, or traced when given the untraced result."""
    trace = 0 if base is None else 1
    cmd = [BINARY, "-workload", args.workload, "-seed", str(args.seed),
           "-seconds", str(args.seconds), "-trace", str(trace)]
    if trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["-trace-file",
                os.path.join(traces, f"{args.workload}-seed{args.seed}.json"),
                "-untraced-p50-ms", repr(base["diag"]["latency_p50_ms"])]
        if "latency_p99_ms" in base["diag"]:
            cmd += ["-untraced-p99-ms", repr(base["diag"]["latency_p99_ms"])]
    out = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                         timeout=RUN_TIMEOUT_S, check=True).stdout
    res = json.loads(out.strip().splitlines()[-1])
    print("diag trace=%d %s" % (trace, json.dumps(res["diag"], sort_keys=True)))
    return res


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    try:
        build()
        res = run(args)
        if args.trace:
            base, res = res, run(args, res)
            res["correct"] = res["correct"] and base["correct"]
            res["attempted"] += base["attempted"]
            res["failed"] += base["failed"]
            if base["diag"].get("report_sha256") != res["diag"].get("report_sha256"):
                print("error: traced report differs from untraced report")
                res["correct"] = False
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 1
    print(json.dumps({k: res[k] for k in ("correct", "attempted", "failed", "metrics")},
                     sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
