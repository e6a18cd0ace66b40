"""Benchmark for idealis: one workload, one seed, one result line.

    python3 bench/run.py --workload null-fresh --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --smoke

Run from the root of a checkout.  Every run starts fresh worker processes
(bench/worker.py) that import the library from ./src.  With --trace 0 the
last line of stdout is a JSON object with the end-to-end metrics of
BENCHMARK.json; with --trace 1 it carries the per-layer metrics of a traced
run instead, and the spans go to bench/results/.  The full result is also
written to bench/results/.  --smoke runs every workload briefly, traced and
untraced, and checks the result lines; it exits non-zero on any problem.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
WORKER = os.path.join(BENCH, "worker.py")
RESULTS = os.path.join(BENCH, "results")
sys.path.insert(0, BENCH)

from worker import _quantile  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

# A run must end within 180 s; workers share what is left of this.
BUDGET_S = 170.0
# Fresh interpreters that only import the library, for the setup_s median.
SETUP_PROBES = 6


def _declared(section: str) -> dict:
    """Metric names and units as BENCHMARK.json declares them."""
    with open("BENCHMARK.json", encoding="utf-8") as fh:
        return {m["name"]: m["unit"] for m in json.load(fh)[section]}


class BenchError(Exception):
    pass


def _worker(args, deadline: float) -> dict:
    if isinstance(args, dict):
        args = ["run", json.dumps(args)]
    left = deadline - time.monotonic()
    if left <= 1:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run(
            [sys.executable, WORKER, *args],
            capture_output=True,
            text=True,
            timeout=left,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker {args[:2]} ran out of time") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"worker {args[:2]} exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _spec(name: str, seed: int, **fields) -> dict:
    """A worker run spec; session workloads start at their first session."""
    spec = {"workload": name, "seed": seed, **fields}
    if hasattr(WORKLOADS[name], "session_rounds"):
        spec.setdefault("session", 0)
    return spec


def _metrics(values: dict, units: dict) -> dict:
    return {name: {"value": values[name], "unit": unit} for name, unit in units.items()}


def _sessions(name: str, seed: int, seconds: float, deadline: float) -> dict:
    """Fresh worker after fresh worker, each one cold session of whole
    rounds, until the sessions have measured `seconds` between them."""
    runs, lat = [], []
    while sum(r["loop_s"] for r in runs) < seconds:
        runs.append(_worker(_spec(name, seed, session=len(runs), latencies=True), deadline))
        lat.extend(runs[-1].pop("latencies"))
    lat.sort()
    loop_s = sum(r["loop_s"] for r in runs)
    return {
        "setup_s": [r["setup_s"] for r in runs],
        "attempted": len(lat),
        "failed": sum(r["failed"] for r in runs),
        "correct": all(r["correct"] for r in runs),
        "problems": [p for r in runs for p in r["problems"]],
        "loop_s": loop_s,
        "ops_per_s": len(lat) / loop_s,
        "op_p50_ms": _quantile(lat, 0.5) * 1e3,
        "op_p90_ms": _quantile(lat, 0.9) * 1e3,
        "peak_rss_mb": max(r["peak_rss_mb"] for r in runs),
        "sessions": runs,
    }


def untraced(name: str, seed: int, seconds: float, deadline: float) -> tuple[dict, dict]:
    _worker(["setup"], deadline)  # leaves the byte-code cache warm; not counted
    setups = [_worker(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
    if hasattr(WORKLOADS[name], "session_rounds"):
        res = _sessions(name, seed, seconds, deadline)
        setups.extend(res["setup_s"])
    else:
        res = _worker(_spec(name, seed, seconds=seconds), deadline)
        setups.append(res["setup_s"])
    setups.extend(_worker(["setup"], deadline)["setup_s"] for _ in range(SETUP_PROBES))
    values = dict(res, setup_s=statistics.median(setups))
    line = {
        "correct": res["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": _metrics(values, _declared("end_to_end")),
    }
    return line, {"run": res, "setup_samples": setups}


def traced(name: str, seed: int, deadline: float) -> tuple[dict, dict]:
    spec = _spec(name, seed, rounds=WORKLOADS[name].trace_rounds)
    os.makedirs(RESULTS, exist_ok=True)
    spans = os.path.join(RESULTS, f"{name}-seed{seed}-spans.tsv.gz")
    # plain runs on both sides of the traced one, so drift in the host's
    # speed during the three does not read as tracing cost
    before = _worker(spec, deadline)
    res = _worker(dict(spec, trace=True, spans=spans), deadline)
    after = _worker(spec, deadline)
    values = dict(res["layers"])
    values["trace.overhead_s"] = res["loop_s"] - (before["loop_s"] + after["loop_s"]) / 2
    line = {
        "correct": res["correct"] and before["correct"] and after["correct"],
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": _metrics(values, _declared("per_layer")),
    }
    return line, {"run": res, "untraced_runs": [before, after], "spans_file": os.path.relpath(spans)}


def smoke() -> int:
    """Every workload briefly, untraced and traced; checks each result line."""
    bad = 0
    deadline = time.monotonic() + 900
    for name in WORKLOADS:
        for trace in (0, 1):
            res = _worker(_spec(name, 7, seconds=1, rounds=1, trace=bool(trace)), deadline)
            ok = res["correct"] and res["failed"] == 0 and res["attempted"] > 0
            if trace:
                ok = ok and set(res["layers"]) | {"trace.overhead_s"} == set(_declared("per_layer"))
            print(f"{'ok ' if ok else 'BAD'} {name} trace={trace} ops={res['attempted']}"
                  f" problems={res['problems'][:3]}")
            bad += not ok
    return 1 if bad else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join("src", "idealis", "__init__.py")):
        print("bench: run from the root of an idealis checkout (no src/idealis here)", file=sys.stderr)
        return 2
    try:
        if args.smoke:
            return smoke()
        if args.workload is None:
            ap.error("--workload is required")
        deadline = time.monotonic() + BUDGET_S
        if args.trace:
            line, detail = traced(args.workload, args.seed, deadline)
        else:
            line, detail = untraced(args.workload, args.seed, args.seconds, deadline)
    except BenchError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 1
    os.makedirs(RESULTS, exist_ok=True)
    out = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"result": line, **detail}, fh, indent=1)
    if not line["correct"]:
        for p in detail["run"]["problems"]:
            print(f"bench: {p}", file=sys.stderr)
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
