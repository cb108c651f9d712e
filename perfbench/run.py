#!/usr/bin/env python3
"""The siqsim benchmark: build, run one workload, check, report.

Run from the repository root:

    python3 perfbench/run.py --workload oracle-matrix --seed 1 \\
        --seconds 25 --trace 0
    python3 perfbench/run.py compare RESULTS_A RESULTS_B

The first form builds perfbench/ (and the `siq` library from ../src)
into $CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench) on
first use, runs the siqbench binary, saves its full report under
--results (default .bench_results/), prints every metric with its unit,
and ends with one JSON line: correct/attempted/failed plus the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1).
It exits non-zero when the build fails or the correctness gate does.

The second form compares two directories of saved reports; see
perfbench/README.md.
"""

import argparse
import glob
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("oracle-matrix", "speculative-matrix", "serve-mix")
RUN_TIMEOUT_S = 170


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    if not os.path.isabs(base):
        base = os.path.join(ROOT, base)
    return os.path.join(base, "perfbench")


def build():
    """Configure (once) and build siqbench; return its path or None."""
    if not (os.path.isfile(os.path.join(ROOT, "CMakeLists.txt"))
            and os.path.isdir(os.path.join(ROOT, "src"))):
        log("perfbench: no siqsim sources beside perfbench/ "
            "(expected CMakeLists.txt and src/ in", ROOT + ")")
        return None
    out = build_dir()
    os.makedirs(out, exist_ok=True)
    logpath = os.path.join(out, "build.log")
    jobs = str(min(os.cpu_count() or 1, 4))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", out,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", out, "-j", jobs, "--target",
                  "siqbench"])
    with open(logpath, "w") as logf:
        for cmd in steps:
            if subprocess.run(cmd, stdout=logf, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(logpath) as f:
                    log(f.read()[-4000:])
                log("perfbench: build failed:", " ".join(cmd))
                return None
    return os.path.join(out, "siqbench")


def source_digest():
    """sha256 over the simulator's sources: the build identity when the
    checkout is not a git repository."""
    h = hashlib.sha256()
    files = sorted(glob.glob(os.path.join(ROOT, "src", "**", "*"),
                             recursive=True))
    for path in [os.path.join(ROOT, "CMakeLists.txt")] + files:
        if os.path.isfile(path):
            h.update(os.path.relpath(path, ROOT).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    try:
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True, timeout=10)
        if r.returncode == 0:
            return r.stdout.strip()
    except OSError:
        pass
    return "none"


def fmt(value):
    return "null" if value is None else repr(value)


def print_metrics(title, metrics):
    if metrics:
        print("# " + title)
    for name, m in metrics.items():
        print("  %-40s %16s %s" % (name, fmt(m["value"]), m["unit"]))


def run(args):
    binary = build()
    if binary is None:
        return 3
    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--pins", os.path.join(HERE, "pins.json")]
    results = args.results
    if not os.path.isabs(results):
        results = os.path.join(ROOT, results)
    os.makedirs(results, exist_ok=True)
    stem = "%s-seed%d-trace%d-%d" % (args.workload, args.seed, args.trace,
                                     time.time_ns())
    if args.trace:
        cmd += ["--spans", os.path.join(results, stem + ".spans.jsonl")]
    if args.tiny:
        cmd.append("--tiny")
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S, cwd=ROOT)
    except subprocess.TimeoutExpired:
        log("perfbench: siqbench exceeded", RUN_TIMEOUT_S, "s")
        return 4
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines:
        log("perfbench: siqbench failed with exit code", proc.returncode)
        return 4
    report = json.loads(lines[-1])

    fp = report["fingerprint"]
    fp["git_commit"] = git_commit()
    fp["source_digest"] = source_digest()
    if fp["build_type"] != "Release" or not fp["lto"]:
        fp["flag"] = "NOT A RELEASE+LTO BUILD: timings are not comparable"
        log("WARNING: perfbench:", fp["flag"])
    with open(os.path.join(results, stem + ".json"), "w") as f:
        json.dump(report, f, indent=1, sort_keys=True)

    print("siqsim benchmark: workload=%s seed=%d seconds=%s trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("# fingerprint " + json.dumps(fp, sort_keys=True))
    print_metrics("end-to-end" + (" (untraced)" if args.trace else ""),
                  report["e2e"])
    print_metrics("per-layer (traced)", report["layers"])
    print_metrics("detail", report["detail"])
    print("# digests " + json.dumps(report["digests"], sort_keys=True))
    for m in report["mismatches"]:
        print("# MISMATCH " + m)
    print("# correctness gate: %s (failed %d of %d)" %
          ("passed" if report["correct"] else "FAILED", report["failed"],
           report["attempted"]))

    metrics = report["layers"] if args.trace else report["e2e"]
    print(json.dumps({"correct": report["correct"],
                      "attempted": report["attempted"],
                      "failed": report["failed"],
                      "metrics": metrics}))
    return 0 if report["correct"] else 1


# ------------------------------------------------------------- compare

def load_results(directory):
    """{(workload, trace): [report, ...]} from saved reports."""
    out = {}
    for path in sorted(glob.glob(os.path.join(directory, "*.json"))):
        with open(path) as f:
            r = json.load(f)
        out.setdefault((r["workload"], r["trace"]), []).append(r)
    return out


def summary(values):
    if len(values) >= 2:
        q1, med, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = med = q3 = values[0]
    return q1, med, q3


def verdict(a, b, better, bound):
    """better / worse beyond bound / within bound / unresolved."""
    qa, qb = summary(a), summary(b)
    med_a, med_b = qa[1], qb[1]
    if med_a == 0:
        return "within bound" if med_b == 0 else "unresolved"
    sign = 1.0 if better == "higher" else -1.0
    gain = sign * (med_b - med_a) / abs(med_a)
    spread = max((qa[2] - qa[0]) / abs(med_a),
                 (qb[2] - qb[0]) / abs(med_b) if med_b else 0.0)
    if bound is None:
        if a == b or (min(a) == max(a) == min(b) == max(b)):
            return "identical"
        return "moved" if abs(gain) > spread else "within spread"
    every_b_better = (min(b) > max(a) if better == "higher"
                      else max(b) < min(a))
    if every_b_better:
        return "better" if gain > bound else "within bound"
    if spread > bound:
        return "unresolved"
    if gain < -bound:
        return "worse beyond bound"
    if gain > bound:
        return "better"
    return "within bound"


def compare(args):
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    spec = {m["name"]: m for m in bench["end_to_end"] + bench["per_layer"]}
    a, b = load_results(args.a), load_results(args.b)
    verdicts = {}
    for key in sorted(set(a) & set(b)):
        ra, rb = a[key], b[key]
        print("== %s trace=%d  (A: %d runs, B: %d runs)" %
              (key[0], key[1], len(ra), len(rb)))
        print("  %-40s %12s %12s %12s %12s %12s %12s  %s" %
              ("metric", "A q1", "A median", "A q3", "B q1", "B median",
               "B q3", "verdict"))
        fa = sum(r["failed"] for r in ra) / max(1, sum(r["attempted"]
                                                       for r in ra))
        fb = sum(r["failed"] for r in rb) / max(1, sum(r["attempted"]
                                                       for r in rb))
        v = "worse beyond bound" if fb > fa else (
            "better" if fb < fa else "within bound")
        verdicts[(key, "failed_frac")] = v
        print("  %-40s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g  %s" %
              ("failed_frac", fa, fa, fa, fb, fb, fb, v))
        for section in ("e2e", "layers"):
            for name in ra[0][section]:
                va = [r[section][name]["value"] for r in ra
                      if name in r[section]]
                vb = [r[section][name]["value"] for r in rb
                      if name in r[section]]
                if not va or not vb or None in va or None in vb:
                    continue
                m = spec.get(name, {"better": "higher"})
                bound = m.get("bound") if section == "e2e" else None
                v = verdict(va, vb, m.get("better", "higher"), bound)
                verdicts[(key, name)] = v
                qa, qb = summary(va), summary(vb)
                print("  %-40s %12.6g %12.6g %12.6g %12.6g %12.6g %12.6g  %s"
                      % ((name,) + qa + qb + (v,)))
    bad = [k for k, v in verdicts.items()
           if v in ("better", "worse beyond bound")]
    print("# %d metric(s) better or worse beyond bound" % len(bad))
    return 0


def main(argv):
    if argv and argv[0] == "compare":
        p = argparse.ArgumentParser(prog="run.py compare")
        p.add_argument("a", help="directory of the baseline's reports")
        p.add_argument("b", help="directory of the candidate's reports")
        return compare(p.parse_args(argv[1:]))
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results", default=".bench_results",
                   help="directory for the full reports (and spans)")
    p.add_argument("--tiny", action="store_true",
                   help="tiny budgets: the self-test configuration")
    return run(p.parse_args(argv))


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
