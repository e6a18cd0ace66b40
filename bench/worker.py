"""One benchmark process: import idealis, make the inputs, run the timed
loop, check every recorded answer, print one JSON line.

Started by run.py in a fresh interpreter for every run, so every cache of
the library starts cold, as it does for one ``idealis`` invocation.  Runs
from the root of a checkout and imports the library from its ``src``.

    python3 bench/worker.py setup
    python3 bench/worker.py run '{"workload": "fsigma", "seed": 1, "seconds": 10}'

The run spec may also set "rounds" (stop after that many rounds),
"session" (which cold session of a session workload), "trace" (record
spans), "spans" (file for them) and "latencies" (return every operation
latency).  A run stops at the first of its time or round budget, and
always after whole rounds.
"""

from __future__ import annotations

import json
import math
import os
import resource
import sys
import time
from array import array


def _import_library() -> float:
    src = os.path.join(os.getcwd(), "src")
    if not os.path.isfile(os.path.join(src, "idealis", "__init__.py")):
        raise SystemExit("no src/idealis under the working directory")
    sys.path.insert(0, src)
    t0 = time.perf_counter()
    import idealis  # noqa: F401
    import idealis.cli  # noqa: F401

    took = time.perf_counter() - t0
    if not os.path.abspath(idealis.__file__).startswith(src + os.sep):
        raise SystemExit(f"imported idealis from {idealis.__file__}, not {src}")
    return took


class _Failed:
    """Recorded in place of the output of an operation that raised."""

    __slots__ = ("text",)

    def __init__(self, exc: BaseException):
        self.text = f"{type(exc).__name__}: {exc}"

    def __eq__(self, other):
        return isinstance(other, _Failed) and other.text == self.text

    def __hash__(self):
        return hash(self.text)


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _run_round(ops, lat, clock):
    outs = []
    raised = 0
    for fn, args, src in ops:
        if src >= 0:
            args = (outs[src],) + args
        t0 = clock()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed operation is counted, not fatal
            out = _Failed(exc)
            raised += 1
        lat.append(clock() - t0)
        outs.append(out)
    return outs, raised


def _record(seen, idx, outs) -> None:
    if seen[idx] is None:
        seen[idx] = [{o} for o in outs]
    else:
        for s, o in zip(seen[idx], outs):
            s.add(o)


def timed_loop(workload, rounds, seconds: float, max_rounds: int, seen: list):
    """Run whole rounds until the time or round budget is spent.

    Records the distinct outputs of each operation of each round index in
    ``seen``.  Returns per-operation latencies, how often each round index
    ran, the number of operations that raised, the loop's wall time, the
    rounds done and the peak RSS after ``workload.rss_round`` rounds.
    """
    clock = time.perf_counter
    lat = array("d")
    runs = [0] * len(rounds)
    raised = 0
    rss = None
    done = 0
    start = clock()
    deadline = start + seconds if seconds > 0 else None
    while True:
        idx = done % len(rounds) if workload.repeat else done
        outs, bad = _run_round(rounds[idx].ops, lat, clock)
        raised += bad
        _record(seen, idx, outs)
        runs[idx] += 1
        done += 1
        if done == workload.rss_round:
            rss = _peak_rss_mb()
        if max_rounds and done >= max_rounds:
            break
        if deadline is not None and clock() >= deadline:
            break
        if not workload.repeat and done == len(rounds):
            break
    wall = clock() - start
    return lat, runs, raised, wall, done, rss if rss is not None else _peak_rss_mb()


def check_outputs(workload, lib, rounds, seen, runs):
    """Run the oracles over every distinct recorded output.

    Returns (failed executions, problems, wrong answers).  An operation
    fails when it raised, when its input came from an operation that
    raised, when its check needs an answer that is missing, when it gave
    different outputs on different repetitions, or when its output fails
    a check; each execution of it counts.  Only the last two are wrong
    answers.  Every other operation of the round is still checked, so an
    operation counted as not failed has always passed its check.
    """
    from workloads import Checker

    problems = []
    wrong = 0
    bad = set()  # (round index, op index)
    check = Checker(lib)
    for idx, outs in enumerate(seen):
        if outs is None:
            continue
        single = []
        for i, s in enumerate(outs):
            if len(s) != 1:
                problems.append(f"round {idx} op {i}: {len(s)} different outputs")
                bad.add((idx, i))
                wrong += 1
            single.append(next(iter(s)))
        skip = set()
        for i, (_, _, src) in enumerate(rounds[idx].ops):
            o = single[i]
            if isinstance(o, _Failed):
                problems.append(f"round {idx} op {i} raised {o.text}")
                skip.add(i)
            elif src in skip:  # src < i, so one pass follows whole chains
                problems.append(f"round {idx} op {i}: not checked, its input op {src} failed")
                skip.add(i)
        bad.update((idx, i) for i in skip)
        check.problems = []
        check.skip = skip
        check.unchecked = set()
        try:
            workload.check(check, idx, rounds[idx], single)
        except Exception as exc:  # a check that cannot run is a failed check
            check.problems.append((None, f"check raised {type(exc).__name__}: {exc}"))
        for i in sorted(check.unchecked - skip):
            problems.append(f"round {idx} op {i}: not checked, an answer it is checked against is missing")
            bad.add((idx, i))
        wrong += len(check.problems)
        for i, p in check.problems:
            problems.append(f"round {idx} op {i}: {p}")
            if i is None:
                bad.update((idx, j) for j in range(len(single)))
            else:
                bad.add((idx, i))
    failed = sum(runs[idx] for idx, _ in bad)
    return failed, problems, wrong


def _quantile(sorted_values, q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_values[max(0, math.ceil(q * len(sorted_values)) - 1)]


def run(spec: dict) -> dict:
    name, seed = spec["workload"], int(spec["seed"])
    seconds, max_rounds = float(spec.get("seconds", 0)), int(spec.get("rounds", 0))
    trace = bool(spec.get("trace"))
    setup_s = _import_library()
    from workloads import WORKLOADS, Lib

    lib = Lib()
    if "session" in spec:
        workload = WORKLOADS[name](seed, lib, int(spec["session"]))
    else:
        workload = WORKLOADS[name](seed, lib)
    rounds = workload.build(lib)
    seen: list = [None] * len(rounds)
    if workload.repeat:
        # one untimed pass, so the timed rounds all reuse the same caches
        outs, _ = _run_round(rounds[0].ops, array("d"), time.perf_counter)
        _record(seen, 0, outs)
    tracer = None
    if trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
        rounds = workload.build(lib)
    try:
        lat, runs, raised, wall, done, rss = timed_loop(workload, rounds, seconds, max_rounds, seen)
    finally:
        if tracer is not None:
            tracer.uninstall()
    t0 = time.perf_counter()
    failed, problems, wrong = check_outputs(workload, lib, rounds, seen, runs)
    check_s = time.perf_counter() - t0
    ordered = sorted(lat)
    result = {
        "workload": name,
        "seed": seed,
        "setup_s": setup_s,
        "rounds": done,
        "attempted": len(lat),
        "failed": failed,
        "raised": raised,
        "correct": not wrong,
        "problems": problems[:20],
        "loop_s": wall,
        "check_s": check_s,
        "ops_per_s": len(lat) / wall,
        "op_p50_ms": _quantile(ordered, 0.5) * 1e3,
        "op_p90_ms": _quantile(ordered, 0.9) * 1e3,
        "peak_rss_mb": rss,
    }
    if spec.get("latencies"):
        result["latencies"] = list(lat)
    if tracer is not None:
        result["layers"] = tracer.summary()
        result["spans"] = tracer.span_count
        if spec.get("spans"):
            tracer.write(spec["spans"])
    return result


def main(argv) -> int:
    bench_dir = os.path.dirname(os.path.abspath(__file__))
    if bench_dir not in sys.path:
        sys.path.insert(0, bench_dir)
    if argv[:1] == ["setup"]:
        print(json.dumps({"setup_s": _import_library()}))
        return 0
    if argv[:1] == ["run"] and len(argv) == 2:
        print(json.dumps(run(json.loads(argv[1]))))
        return 0
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
