#!/usr/bin/env python3
"""Deformation-pipeline benchmark: one command, four seeded workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--smoke] [--reference FILE] [--record]

Builds perfbench/ (the driver plus the library from this checkout's own
CMakeLists) into .bench_build/perfbench, runs one workload and prints its
metrics by name with their units; the last line of stdout is one JSON
object {"correct", "attempted", "failed", "metrics"}. With --trace 0 the
metrics are the end-to-end ones, with --trace 1 the per-layer ones of a
traced run that drives the same work layer by layer.

The command exits non-zero when any phase returns a non-OK Status or when
a shot, failure or epoch count diverges: from the stored reference for
the seed (perfbench/reference.json), between rounds, between a set-up
pass and a timed pass that replay the same timelines, or between the
untraced and traced drivers. --record stores this run's counts as the
reference for (mode, workload, seed) instead of checking against it.
--smoke shrinks every workload so the suite runs in seconds (the mode
perfbench/test_perfbench.py uses).
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "surf_perfbench")
DEFAULT_REFERENCE = os.path.join(HERE, "reference.json")
WORKLOADS = ("memory_d9", "cosmic_cold_d7", "cosmic_restart_d7",
             "q3de_burst_d7")
RUN_TIMEOUT_S = 170


def declared_units():
    """Metric name -> unit, as BENCHMARK.json declares them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
            spec = json.load(f)
        return {m["name"]: m["unit"]
                for m in spec["end_to_end"] + spec["per_layer"]}
    except (OSError, ValueError, KeyError):
        return {}


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output goes to stderr."""
    jobs = str(max(1, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", BUILD,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
            return False
    cmd = ["cmake", "--build", BUILD, "--target", "surf_perfbench",
           "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr).returncode == 0


def git_sha():
    try:
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    return "unknown (not a git checkout)"


def run_driver(args):
    scratch = os.path.join(BUILD, "scratch", "%s-%d" % (args.workload,
                                                        os.getpid()))
    cmd = [BINARY, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    if args.smoke:
        cmd += ["--smoke"]
    if args.smoke or args.record:
        cmd += ["--min-rounds", "1"]
    if args.trace:
        traces = os.path.join(BUILD, "traces")
        os.makedirs(traces, exist_ok=True)
        cmd += ["--spans", os.path.join(
            traces, "%s-seed%d.json" % (args.workload, args.seed))]
    # The library reads SURF_* variables (fault plans, persistence,
    # matching backend); the benchmark's inputs come from its arguments.
    env = {k: v for k, v in os.environ.items() if not k.startswith("SURF_")}
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, env=env,
                              text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: %s did not finish within %d s" %
            (args.workload, RUN_TIMEOUT_S))
        return None
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    try:
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
    except (ValueError, IndexError):
        pass
    log("perfbench: driver exited with code %d and no report" %
        proc.returncode)
    return None


def counts(phase):
    return [phase["shots"], phase["failures"], phase["epochs"],
            phase["dead"]]


class Gate:
    """Counts attempted and failed phases; records why each failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def phase(self, label, phase, checks):
        self.attempted += 1
        bad = []
        if phase["error"]:
            bad.append("non-OK status: " + phase["error"])
        for ok, why in checks:
            if not ok:
                bad.append(why)
        if bad:
            self.failed += 1
            self.problems += ["%s: %s" % (label, b) for b in bad]


def check(report, reference, workload):
    gate = Gate()
    first = report["rounds"][0]
    replay = workload in ("cosmic_restart_d7", "q3de_burst_d7")
    for driver, rounds in (("untraced", report["rounds"]),
                           ("traced", report.get("traced_rounds", []))):
        for i, r in enumerate(rounds):
            phases = [("setup", r["setup"])] + [("timed", t)
                                                for t in r["timed"]]
            for j, (name, ph) in enumerate(phases):
                want = counts(first[name] if name == "setup"
                              else first["timed"][0])
                checks = [(counts(ph) == want,
                           "counts %s differ from untraced round 1's %s" %
                           (counts(ph), want))]
                if reference is not None:
                    checks.append((counts(ph) == reference[name],
                                   "counts %s differ from the reference %s"
                                   % (counts(ph), reference[name])))
                if name == "timed" and replay:
                    checks.append((counts(ph) == counts(r["setup"]),
                                   "timed replay counts %s differ from the "
                                   "set-up pass %s" %
                                   (counts(ph), counts(r["setup"]))))
                if name == "timed" and workload == "cosmic_restart_d7":
                    base = first["timed"][0]["snapshot_bytes"]
                    checks.append((ph["misses"] == 0 and
                                   ph["restored_segments"] > 0,
                                   "warm restart restored %d segments and "
                                   "missed %d lookups" %
                                   (ph["restored_segments"], ph["misses"])))
                    checks.append((ph["snapshot_bytes"] == base,
                                   "snapshot of %d bytes, untraced %d" %
                                   (ph["snapshot_bytes"], base)))
                gate.phase("%s round %d %s %d" % (driver, i + 1, name, j),
                           ph, checks)
    return gate


def write_reference(path, refs):
    """One line per (mode, workload, seed) entry, sorted, for review."""
    lines = []
    for mode in sorted(refs):
        for workload in sorted(refs[mode]):
            seeds = refs[mode][workload]
            for seed in sorted(seeds, key=int):
                lines.append("  %s: %s" % (
                    json.dumps("%s/%s/%s" % (mode, workload, seed)),
                    json.dumps(seeds[seed], sort_keys=True)))
    with open(path, "w") as f:
        f.write("{\n" + ",\n".join(lines) + "\n}\n")


def load_reference(path):
    """Entries keyed "mode/workload/seed" -> {"setup": [...], ...}."""
    try:
        with open(path) as f:
            flat = json.load(f)
    except (OSError, ValueError):
        return {}
    refs = {}
    for key, entry in flat.items():
        mode, workload, seed = key.split("/")
        refs.setdefault(mode, {}).setdefault(workload, {})[seed] = entry
    return refs


def end_to_end(report):
    rounds = report["rounds"]
    timed = [t for r in rounds for t in r["timed"]]
    return {
        "shots_per_s": statistics.median(
            t["shots"] / t["seconds"] for t in timed),
        "epochs_per_s": statistics.median(
            t["epochs"] / t["seconds"] for t in timed),
        "setup_s": statistics.median(r["setup"]["seconds"] for r in rounds),
        "peak_rss_mib": report["peak_rss_mib"],
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--reference", default=DEFAULT_REFERENCE)
    ap.add_argument("--record", action="store_true")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "CMakeLists.txt")):
        log("perfbench: no library sources next to %s" % HERE)
        return 2
    if not build():
        log("perfbench: build failed")
        return 2
    report = run_driver(args)
    if report is None:
        return 2

    mode = "smoke" if args.smoke else "full"
    refs = load_reference(args.reference)
    key = str(args.seed)
    reference = None if args.record else \
        refs.get(mode, {}).get(args.workload, {}).get(key)
    gate = check(report, reference, args.workload)

    provenance = {
        "workload": args.workload, "seed": args.seed, "mode": mode,
        "nproc": report["nproc"], "workers": report["threads"],
        "compiler": report["compiler"], "build_type": report["build_type"],
        "git_sha": git_sha(), "host": platform.machine(),
        "rounds": len(report["rounds"]),
        "timed_passes": sum(len(r["timed"]) for r in report["rounds"]),
        "blocks": report["blocks"],
        "reference": "checked" if reference else
                     ("recorded" if args.record else "none for this seed"),
    }
    units = declared_units()
    values = report["layers"] if args.trace else end_to_end(report)
    metrics = {k: {"value": v, "unit": units.get(k, "")}
               for k, v in values.items()}

    print("perfbench %s" % json.dumps(provenance, sort_keys=True))
    for name, m in metrics.items():
        print("  %-28s %14.6g %s" % (name, m["value"], m["unit"]))
    if args.trace:
        unspanned = json.dumps(report["unspanned_s"], sort_keys=True)
        print("  unspanned remainder (s per timed pass): %s" % unspanned)
        if report["layers"]["trace.coverage"] < 0.9:
            print("  WARNING trace.coverage below 0.9")
    for p in gate.problems:
        print("  DIVERGENCE %s" % p)

    correct = gate.failed == 0
    if args.record and correct:
        r0 = report["rounds"][0]
        refs.setdefault(mode, {}).setdefault(args.workload, {})[key] = {
            "setup": counts(r0["setup"]), "timed": counts(r0["timed"][0])}
        write_reference(args.reference, refs)

    reports = os.path.join(BUILD, "reports")
    os.makedirs(reports, exist_ok=True)
    with open(os.path.join(reports, "%s-%s-seed%d-trace%d.json" % (
            mode, args.workload, args.seed, args.trace)), "w") as f:
        json.dump({"provenance": provenance, "metrics": metrics,
                   "problems": gate.problems, "driver_report": report}, f,
                  indent=1)

    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
