"""susylattice benchmark runner.

    python3 bench/run.py --workload {fock,collective,tables} --seed N \
        --seconds S --trace {0,1}

Run from the root of a checkout.  Every pass of a workload runs in a fresh
child interpreter (`bench/child.py`) that imports the checkout's `src/`
and calls `susylab --jobs 1` in-process; BLAS threads stay at the machine
default and are recorded.

--trace 0 measures the end-to-end metrics with tracing off: set-up is
sampled by SETUP_SAMPLES import-only children plus every pass, then passes
repeat until S seconds have gone (at least MIN_PASSES); each metric is the
median over samples.  --trace 1 makes one untraced pass (the overhead
baseline) and then traced passes likewise; per-layer metrics are medians
over the traced passes.  Spans and a full summary go to `.bench_out/`.

The last stdout line is the result object; the line before it is the
summary (medians, sample counts, environment, failures, drift, top layers).
Exit status 1, with no result line, when the checkout has no `src/` to
import or a child cannot import it.
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH / "reference.json"

import child  # noqa: E402  (bench/ is on sys.path as the script's directory)
import workloads  # noqa: E402

DEFAULT_SEED = 0
SETUP_SAMPLES = 4
# A median of at least three passes outvotes one disturbed pass.
MIN_PASSES = 3
# Every run must end within 180 s; children get what is left of this.
HARD_LIMIT_S = 170.0
IMPORT_GROUPS = ("numpy", "scipy", "susylattice")


class SetupError(RuntimeError):
    """The checkout cannot be imported: nothing was measured."""


class PassError(RuntimeError):
    """A child died after importing: its operations count as failed."""


def spawn(extra, deadline, importtime=False):
    """Run child.py once and return its JSON, plus setup_s (spawn to the end
    of `import susylattice`, on the shared monotonic clock)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, *(["-X", "importtime"] if importtime else []),
           str(BENCH / "child.py"), *extra]
    spawned = time.monotonic()
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True,
                              text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"child timed out after {exc.timeout:.0f} s") from None
    imported = child.IMPORT_MARKER in proc.stderr
    if proc.returncode != 0:
        tail = proc.stderr.strip().splitlines()[-3:]
        err = PassError if imported else SetupError
        raise err(f"child exited {proc.returncode}: {' | '.join(tail)}")
    out = json.loads(proc.stdout.strip().splitlines()[-1])
    if Path(out["src"]).resolve() != (SRC / "susylattice").resolve():
        raise SetupError(f"imported susylattice from {out['src']}, "
                         f"not from {SRC}")
    out["setup_s"] = out["import_done"] - spawned
    if importtime:
        out["import_split"] = import_split(proc.stderr)
    return out


def import_split(stderr):
    """Self import time per top-level package from `-X importtime` lines
    printed before the child's import marker."""
    totals = dict.fromkeys((*IMPORT_GROUPS, "other"), 0.0)
    for line in stderr.splitlines():
        if line.startswith(child.IMPORT_MARKER):
            break
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[0].strip().isdigit():
            continue
        package = fields[2].strip().split(".")[0]
        group = package if package in IMPORT_GROUPS else "other"
        totals[group] += int(fields[0]) / 1e6
    return totals


def layer_metrics(result, untraced_wall):
    """Per-layer metric values of one traced pass."""
    import tracing  # imports numpy and scipy; only the traced run needs it

    spans = result["spans"]
    totals = tracing.layer_totals(spans)
    out = {}
    for name, t in totals.items():
        out[f"{name}.s"] = out[f"{name}.self_s"] = t["s"]
        out[f"{name}.calls"] = t["calls"]
        out[f"{name}.max_dim"] = t["max_dim"]
    out["kernel.dense_bytes"] = sum(t["nbytes"] for n, t in totals.items()
                                    if n.startswith("kernel."))
    out["models.build.useful_ratio"] = (
        result["distinct_builds"] / result["builds"] if result["builds"]
        else 1.0)
    root = next(s for s in spans if s["name"] == "bench.workload")
    glue = sum(t["s"] for n, t in totals.items() if n.startswith("bench."))
    out["trace.unattributed_share"] = glue / (root["end"] - root["start"])
    if untraced_wall is not None:
        out["trace.overhead_s"] = result["wall_s"] - untraced_wall
    for group, seconds in result["import_split"].items():
        out[f"import.{group}.s"] = seconds
    return out, totals


def git_commit():
    """The checkout's commit read from .git without running git (the
    benchmark may run in an export that is not a repository)."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(child_env):
    return {**child_env,
            "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
            "OMP_NUM_THREADS": os.environ.get("OMP_NUM_THREADS"),
            "nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "git_commit": git_commit(),
            "jobs": 1}


def median_summary(samples, units):
    return {name: {"median": statistics.median(values), "n": len(values),
                   "unit": units[name], "values": values}
            for name, values in samples.items()}


def load_reference(workload):
    try:
        return json.loads(REFERENCE.read_text())["workloads"].get(workload)
    except (OSError, KeyError, ValueError):
        return None


def write_reference(workload, seed, values):
    try:
        data = json.loads(REFERENCE.read_text())
    except (OSError, ValueError):
        data = {"seed": seed, "workloads": {}}
    data["workloads"][workload] = values
    REFERENCE.write_text(json.dumps(data, indent=0, sort_keys=True) + "\n")


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="record this run's row values as the reference "
                             "for the default seed")
    args = parser.parse_args(argv)
    if not (SRC / "susylattice" / "__init__.py").is_file():
        print(f"error: no susylattice sources under {SRC}", file=sys.stderr)
        return 1

    deadline = time.monotonic() + HARD_LIMIT_S
    child_args = ["--workload", args.workload, "--seed", str(args.seed)]
    n_ops = len(workloads.operations(args.workload, args.seed))
    failures, passes, attempted = [], [], 0

    def run_pass(trace=False):
        nonlocal attempted
        attempted += n_ops
        try:
            result = spawn(child_args + (["--trace"] if trace else []),
                           deadline, importtime=trace)
        except PassError as exc:
            failures.append({"op": "*", "reasons": [str(exc)], "count": n_ops})
            return None
        failures.extend({**r, "count": 1} for r in result["ops"]
                        if r["reasons"])
        passes.append(result)
        return result

    try:
        setups = [spawn(["--import-only"], deadline)
                  for _ in range(SETUP_SAMPLES if not args.trace else 0)]
        start = time.monotonic()
        untraced = run_pass() if args.trace else None
        traced, done = [], 0
        while True:
            result = run_pass(trace=bool(args.trace))
            done += 1
            if result is not None and args.trace:
                traced.append(result)
            now, total = time.monotonic(), done + bool(args.trace)
            per_pass = (now - start) / total
            # Past MIN_PASSES, start another pass only if it should end
            # within --seconds.
            late = now + per_pass > start + args.seconds
            if (total >= MIN_PASSES and late) or now + per_pass > deadline \
                    or (result is None and not passes):
                break
    except SetupError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if not passes or (args.trace and not traced):
        print("error: no pass completed", file=sys.stderr)
        return 1

    failed = sum(f["count"] for f in failures)
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    summary = {"workload": args.workload, "seed": args.seed,
               "seconds": args.seconds, "trace": args.trace,
               "env": environment(passes[0]["env"]),
               "attempted": attempted, "failed": failed,
               "failed_share": failed / attempted, "failures": failures,
               "op_wall_s": {op["op"]: statistics.median(
                   p["ops"][i]["wall_s"] for p in passes)
                   for i, op in enumerate(passes[0]["ops"])}}

    reference = load_reference(args.workload)
    if args.seed == DEFAULT_SEED and reference is not None:
        drift = max(workloads.max_drift(p["values"], reference)
                    for p in passes)
        summary["drift_max"] = drift if math.isfinite(drift) else "inf"
    if args.update_reference and args.seed == DEFAULT_SEED and not failed:
        write_reference(args.workload, args.seed, passes[0]["values"])

    if not args.trace:
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        samples = {"setup_s": [r["setup_s"] for r in setups + passes]}
        for name in ("wall_s", "cpu_s", "peak_rss_mb"):
            samples[name] = [p[name] for p in passes]
        summary["metrics"] = median_summary(samples, units)
    else:
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        per_pass, top = [], defaultdict(float)
        base = untraced["wall_s"] if untraced else None
        for result in traced:
            values, totals = layer_metrics(result, base)
            per_pass.append(values)
            for name, t in totals.items():
                top[name] += t["s"] / len(traced)
        summary["metrics"] = median_summary(
            {name: [v.get(name, 0) for v in per_pass] for name in units},
            units)
        summary["top_layers_s"] = dict(
            sorted(top.items(), key=lambda kv: -kv[1])[:10])
        spans_file = OUT / f"spans-{tag}.json"
        spans_file.write_text(json.dumps(
            [{**s, "run": f"{s['run']}-pass{i}"}
             for i, r in enumerate(traced) for s in r["spans"]]))
        summary["spans_file"] = str(spans_file.relative_to(ROOT))
    (OUT / f"summary-{tag}.json").write_text(json.dumps(summary, indent=1))

    print(json.dumps({k: v for k, v in summary.items() if k != "failures"}
                     | {"failures": failures[:10]}))
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": m["median"], "unit": m["unit"]}
                    for name, m in summary["metrics"].items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
