#!/usr/bin/env python3
"""End-to-end benchmark of hgmatch: builds the library and the driver from
source, generates a workload's inputs from a seed and the workload's query
pool (hgbench/pools/), runs the measured process and prints one JSON
result as the last line of standard output.

    python3 hgbench/run.py --workload enum-seq --seed 1 --seconds 10 --trace 0
    python3 hgbench/run.py --smoke              # tiny runs, schema + counts
    python3 hgbench/run.py --steadiness 5       # spread of every metric
    python3 hgbench/run.py --make-pools         # after a generator change

Run it from the repository root. Everything it writes goes under
$CARGO_TARGET_DIR (default .bench_build): the CMake build tree, the
generated inputs and one result file per run. See hgbench/README.md.
"""

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
POOLS = os.path.join(HERE, "pools")
WORKLOADS = ["enum-seq", "enum-par", "serve-mix"]
BUILD_TIMEOUT = 850
POOL_TIMEOUT = 900
GEN_TIMEOUT = 100
RUN_TIMEOUT = 150
SETUP_TIMEOUT = 30


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def build_root():
    return os.path.join(ROOT, os.environ.get("CARGO_TARGET_DIR") or
                        ".bench_build")


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def build():
    """Configures (once) and builds the driver; returns its path."""
    if not os.path.isfile(os.path.join(ROOT, "src", "core", "hgmatch.h")):
        raise BenchError("hgmatch sources (src/) not found next to hgbench/")
    tree = os.path.join(build_root(), "hgbench")
    if not os.path.isfile(os.path.join(tree, "CMakeCache.txt")):
        run_checked(["cmake", "-S", HERE, "-B", tree,
                     "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT)
    jobs = str(max(1, os.cpu_count() or 1))
    run_checked(["cmake", "--build", tree, "-j", jobs], BUILD_TIMEOUT)
    driver = os.path.join(tree, "hgbench_driver")
    if not os.path.isfile(driver):
        raise BenchError("build produced no driver")
    return driver


def run_checked(cmd, timeout):
    """Runs cmd with stdout sent to stderr; raises on failure."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                              timeout=timeout, cwd=ROOT)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    if proc.returncode != 0:
        raise BenchError("failed (%d): %s" % (proc.returncode, " ".join(cmd)))


def run_json(cmd, timeout):
    """Runs cmd and parses the last line of its stdout as JSON."""
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout, cwd=ROOT, text=True)
    except subprocess.TimeoutExpired:
        raise BenchError("timed out: " + " ".join(cmd))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError("failed (%d): %s" % (proc.returncode, " ".join(cmd)))
    return json.loads(lines[-1])


def pool_dir(workload, smoke):
    """The committed pool of a workload; smoke pools are made on the fly in
    the build tree."""
    if smoke:
        return os.path.join(build_root(), "pools", workload + "-smoke")
    return os.path.join(POOLS, workload)


def make_pool(driver, workload, smoke):
    """(Re)makes the query pool of one workload."""
    out = pool_dir(workload, smoke)
    partial = out + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    run_checked([driver, "pool", "--workload", workload, "--out", partial] +
                (["--smoke"] if smoke else []), POOL_TIMEOUT)
    shutil.rmtree(out, ignore_errors=True)
    os.replace(partial, out)


def generate(driver, workload, seed, smoke):
    """Generates (or reuses) the inputs of one workload and seed. They
    depend on the pool and the driver only, both under hgbench/, so reuse
    is keyed by hgbench/ (the data hypergraph is checked against the pool's
    checksum whenever it is generated). Smoke inputs are always remade."""
    name = "%s-%d%s-%s" % (workload, seed, "-smoke" if smoke else "",
                           source_digest(["hgbench"]))
    inputs = os.path.join(build_root(), "inputs", name)
    if smoke:
        shutil.rmtree(inputs, ignore_errors=True)
    elif os.path.isfile(os.path.join(inputs, "manifest.json")):
        return inputs
    partial = inputs + ".partial"
    shutil.rmtree(partial, ignore_errors=True)
    os.makedirs(partial)
    cmd = [driver, "gen", "--workload", workload, "--seed", str(seed),
           "--pool", pool_dir(workload, smoke), "--out", partial]
    run_checked(cmd + (["--smoke"] if smoke else []), GEN_TIMEOUT)
    os.replace(partial, inputs)
    return inputs


def source_digest(dirs):
    """Digest of every file under the given repository directories."""
    digest = hashlib.sha256()
    for top in dirs:
        for base, subdirs, files in os.walk(os.path.join(ROOT, top)):
            subdirs.sort()
            for name in sorted(files):
                path = os.path.join(base, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return digest.hexdigest()[:16]


def source_identity():
    """git revision when available (the benchmark may run in a plain
    checkout), plus a digest of the library sources either way."""
    rev = "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL, text=True, timeout=10)
        if proc.returncode == 0:
            rev = proc.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    return rev, source_digest(["src"])


def measure(driver, workload, seed, seconds, trace, smoke=False):
    """One benchmark run: returns the full result record."""
    inputs = generate(driver, workload, seed, smoke)
    base = [driver, "run", "--workload", workload, "--inputs", inputs,
            "--seconds", repr(float(seconds)), "--trace", str(int(trace))]
    if smoke:
        base.append("--smoke")
    if trace:
        record = run_json(base, RUN_TIMEOUT)
    else:
        # setup_s is the median of every set-up timed by the workload's
        # set-up-only processes (several set-ups each), half of them run
        # before the measured process and half after it, so that the
        # figure spans the run rather than one moment of it.
        first = run_json(base + ["--setup-only"], SETUP_TIMEOUT)
        setups = list(first["setup_s"])
        before = max(1, first["procs"] // 2)
        for _ in range(before - 1):
            setups += run_json(base + ["--setup-only"],
                               SETUP_TIMEOUT)["setup_s"]
        record = run_json(base, RUN_TIMEOUT)
        for _ in range(first["procs"] - before):
            setups += run_json(base + ["--setup-only"],
                               SETUP_TIMEOUT)["setup_s"]
        record["setup_measured_s"] = record["metrics"]["setup_s"]["value"]
        record["metrics"]["setup_s"]["value"] = statistics.median(setups)
        record["setup_samples_s"] = setups
    rev, digest = source_identity()
    record["env"].update({"git_rev": rev, "source_digest": digest,
                          "seed": seed, "seconds": seconds})
    return record


def contract_result(record, names):
    """The final line: correct/attempted/failed plus exactly `names`."""
    metrics = {}
    correct = bool(record["correct"]) and record["failed"] == 0
    for name in names:
        m = record["metrics"].get(name)
        if m is None or m["value"] is None or not math.isfinite(m["value"]):
            correct = False
            continue
        metrics[name] = {"value": m["value"], "unit": m["unit"]}
    return {"correct": correct, "attempted": int(record["attempted"]),
            "failed": int(record["failed"]), "metrics": metrics}


def print_report(record, names):
    env = record["env"]
    inputs = env.get("inputs", {})
    print("# workload %s seed %s trace %s: %s attempted, %s failed, "
          "correct=%s" % (record["workload"], env["seed"], record["trace"],
                          record["attempted"], record["failed"],
                          record["correct"]))
    print("# env: nproc=%s engine_threads=%s io_threads=%s connections=%s "
          "compiler=%s build=%s git=%s src=%s" % (
              env["nproc"], env["engine_threads"], env["io_threads"],
              env["connections"], env["compiler"], env["build_type"],
              env["git_rev"][:12], env["source_digest"]))
    print("# inputs: profile=%s scale=%s |V|=%s |E|=%s index_bytes=%s "
          "queries=%s per_class=%s fresh=%s repeats=%s oracle_checked=%s" % (
              inputs.get("profile"), inputs.get("scale"),
              inputs.get("vertices"), inputs.get("edges"),
              env["index_bytes"], env["queries"],
              inputs.get("fresh_per_class"), env["fresh"], env["repeats"],
              inputs.get("oracle_checked")))
    if not record["trace"]:
        for label, p in record["percentiles"].items():
            print("# %s_ms = %.4f over %d samples, %d beyond" % (
                label, p["value_ms"], p["samples"], p["beyond"]))
        if "setup_samples_s" in record:
            print("# setup_s samples: %s" % ", ".join(
                "%.4f" % s for s in record["setup_samples_s"]))
    print("# %-26s %14s  %s" % ("metric", "value", "unit"))
    for name in names:
        m = record["metrics"].get(name)
        if m is not None:
            print("# %-26s %14.6g  %s" % (name, m["value"], m["unit"]))


def save(record):
    out = os.path.join(build_root(), "results")
    os.makedirs(out, exist_ok=True)
    path = os.path.join(out, "%s-seed%s-trace%s.json" % (
        record["workload"], record["env"]["seed"], record["trace"]))
    with open(path, "w") as f:
        json.dump(record, f, indent=1)


def metric_names(spec, trace):
    return [m["name"] for m in spec["per_layer" if trace else "end_to_end"]]


def smoke(driver, spec):
    """Tiny runs of every workload, traced and untraced: checks the output
    schema and the count gate. Returns a process exit code."""
    failures = 0
    for workload in WORKLOADS:
        make_pool(driver, workload, smoke=True)
        for trace in (0, 1):
            record = measure(driver, workload, 1, 0.5, trace, smoke=True)
            result = contract_result(record, metric_names(spec, trace))
            missing = [n for n in metric_names(spec, trace)
                       if n not in result["metrics"]]
            ok = (result["correct"] and result["attempted"] > 0 and
                  not missing)
            failures += 0 if ok else 1
            print("smoke %-9s trace=%d: %s (%d queries%s)" % (
                workload, trace, "ok" if ok else "FAIL",
                result["attempted"],
                ", missing " + ",".join(missing) if missing else ""))
    return 1 if failures else 0


def steadiness(driver, spec, repeats, workloads, seconds, trace):
    """Repeats each workload over seeds 1..repeats and prints each metric's
    median, quartiles and spread (q3 - q1) / median against its bound."""
    names = metric_names(spec, trace)
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    for workload in workloads:
        values = {n: [] for n in names}
        for seed in range(1, repeats + 1):
            record = measure(driver, workload, seed, seconds, trace)
            save(record)
            result = contract_result(record, names)
            log("%s seed %d: correct=%s %s" % (
                workload, seed, result["correct"], " ".join(
                    "%s=%.5g" % (n, m["value"])
                    for n, m in result["metrics"].items())))
            for n, m in result["metrics"].items():
                values[n].append(m["value"])
        print("steadiness %s over %d seeds (trace=%d):" % (
            workload, repeats, trace))
        for n in names:
            v = values[n]
            if len(v) < 2:
                continue
            q1, median, q3 = statistics.quantiles(v, n=4)
            spread = (q3 - q1) / median if median else float("nan")
            bound = bounds.get(n)
            print("  %-26s median %12.6g  q1 %12.6g  q3 %12.6g  spread "
                  "%6.3f%s" % (n, median, q1, q3, spread,
                               "  (bound %.2f)" % bound if bound else ""))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float,
                        help="timed seconds (default: run_seconds of "
                        "BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--steadiness", type=int, metavar="RUNS")
    parser.add_argument("--make-pools", action="store_true",
                        help="remake hgbench/pools/ (needed after a change "
                        "of the data generator or of the workload table)")
    parser.add_argument("--workloads", default=",".join(WORKLOADS),
                        help="steadiness, make-pools: comma-separated "
                        "workloads")
    args = parser.parse_args()
    try:
        spec = load_spec()
        if args.seconds is None:
            args.seconds = spec["run_seconds"]
        driver = build()
        if args.smoke:
            return smoke(driver, spec)
        if args.make_pools:
            for workload in args.workloads.split(","):
                make_pool(driver, workload, smoke=False)
            return 0
        if args.steadiness:
            return steadiness(driver, spec, args.steadiness,
                              args.workloads.split(","), args.seconds,
                              args.trace)
        if args.workload is None:
            parser.error("--workload is required")
        record = measure(driver, args.workload, args.seed, args.seconds,
                         args.trace)
        names = metric_names(spec, args.trace)
        save(record)
        print_report(record, names)
        print(json.dumps(contract_result(record, names)), flush=True)
        return 0
    except (BenchError, OSError, ValueError, KeyError) as e:
        log("hgbench: %s" % e)
        return 1


if __name__ == "__main__":
    sys.exit(main())
