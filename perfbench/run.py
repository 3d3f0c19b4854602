"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout; `spgames` is imported from `src/`.  The
run makes a fixed number of passes of the workload, each in a fresh
interpreter (`worker.py`): about `--seconds` of wall time on the host the
benchmark was defined on, and at least MIN_OPS ops.  Every pass of a
run works on the same inputs, made from `--seed`, and checks every
result.

Times are corrected for the speed of a shared host (`hostclock.py`);
the run also prints them as plain wall times.  With `--trace 0` it
prints the end-to-end metrics of BENCHMARK.json: the median set-up time
over passes, ops per second (ops timed / summed op time), the median op
latency (the mean from p45 to p55), the latency with ten ops beyond it,
and the peak RSS.  With
`--trace 1` passes alternate between traced and untraced, and it prints
the per-layer metrics: the medians over traced passes of each layer's
calls, self time and counters, plus the traced and untraced throughput
and the share of traced op time covered by the layers' self time.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.  Lines before it
summarise the run for a reader.  The exit code is 0 when the run
completed, whether or not its results were correct, and 1 or 2 when it
could not run.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Wall seconds of one pass on a 2-vCPU Xeon container.  The pass count is
# a function of --seconds alone, so every run of a workload times the same
# ops, whatever the host's speed, and its tail latency has the same rank.
PASS_S = {"collusion_corpus": 3.5, "seq_deadline_trend": 4.0,
          "paper_report": 2.0, "spe_symmetric": 3.3}
WORKLOADS = tuple(PASS_S)
MIN_OPS = 11  # the tail latency needs ten ops beyond it
RUN_LIMIT_S = 150.0  # a run must end within 180 s


class PassError(RuntimeError):
    """A worker process failed or produced no result."""


def run_pass(workload: str, seed: int, traced: bool, corrupt: bool = False,
             timeout: float = RUN_LIMIT_S) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), workload, str(seed),
             str(int(traced)), str(int(corrupt))],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired as exc:
        raise PassError(f"{workload} pass exceeded {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise PassError(f"{workload} pass exited with {proc.returncode}:\n"
                        + proc.stderr[-2000:])
    return json.loads(lines[-1])


def tail(latencies: list[float]) -> float:
    """The latency with ten ops beyond it."""
    return sorted(latencies)[-11]


def central(latencies: list[float]) -> float:
    """The median, as the mean of the latencies from p45 to p55.

    A run's latencies form one group of samples per game or size, and the
    two groups around the median can lie far apart: in spe_symmetric
    they differ by 45%.  A plain median then jumps between them from run
    to run; the mean over the middle tenth moves smoothly instead.
    """
    ordered = sorted(latencies)
    low = int(len(ordered) * 0.45)
    high = max(low + 1, math.ceil(len(ordered) * 0.55))
    return statistics.fmean(ordered[low:high])


def throughput(passes: list[dict], key: str = "latencies") -> float:
    return (sum(len(p[key]) for p in passes)
            / sum(sum(p[key]) for p in passes))


def timings(passes: list[dict], wall: bool) -> dict[str, float]:
    prefix = "wall_" if wall else ""
    latencies = [x for p in passes for x in p[prefix + "latencies"]]
    return {
        "setup_s": statistics.median(p[prefix + "setup_s"] for p in passes),
        "ops_per_s": throughput(passes, prefix + "latencies"),
        "op_p50_ms": central(latencies) * 1000,
        "op_tail_ms": tail(latencies) * 1000,
    }


def end_to_end(passes: list[dict]) -> tuple[dict[str, float], list[str]]:
    values = timings(passes, wall=False)
    values["peak_rss_mb"] = max(p["rss_mb"] for p in passes)
    count = sum(len(p["latencies"]) for p in passes)
    wall = timings(passes, wall=True)
    notes = [f"op_tail_ms is p{100 * (count - 10) / count:.1f}: 10 of {count} ops "
             f"took longer; {len(passes)} passes",
             "wall clock, before the host-speed correction: "
             + ", ".join(f"{name} {value:.6g}" for name, value in wall.items())]
    return values, notes


def per_layer(traced: list[dict], untraced: list[dict]
              ) -> tuple[dict[str, float], list[str]]:
    names = traced[0]["layers"]
    values = {name: statistics.median_low(p["layers"][name] for p in traced)
              for name in names}
    fast, slow = throughput(untraced), throughput(traced)
    values["trace.ops_per_s_traced"] = slow
    values["trace.ops_per_s_untraced"] = fast
    values["trace.self_s_share"] = statistics.median(p["self_s_share"] for p in traced)
    ranked = sorted((v, n) for n, v in values.items() if n.endswith(".self_s"))
    notes = [f"tracing overhead: {slow:.4g} ops/s traced vs {fast:.4g} untraced "
             f"({fast / slow - 1:+.1%} time per op); "
             f"{len(traced)} traced, {len(untraced)} untraced passes",
             "largest self_s per traced pass, in s: "
             + ", ".join(f"{n} {v:.3f}" for v, n in reversed(ranked[-4:]))]
    return values, notes


def run(workload: str, seed: int, seconds: float, traced: bool) -> dict:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if traced else "end_to_end"]
    planned = max(2 if traced else 1, round(seconds / PASS_S[workload]))
    passes: list[dict] = []
    start = time.perf_counter()

    def done() -> bool:
        return (len(passes) >= planned
                and sum(len(p["latencies"]) for p in passes) >= MIN_OPS)

    while not done():
        remaining = RUN_LIMIT_S - (time.perf_counter() - start)
        if remaining <= 0:
            raise PassError(f"{workload} did not finish within {RUN_LIMIT_S:.0f} s")
        trace_this = traced and len(passes) % 2 == 0
        result = run_pass(workload, seed, trace_this, timeout=remaining)
        result["traced"] = trace_this
        passes.append(result)

    if traced:
        values, notes = per_layer([p for p in passes if p["traced"]],
                                  [p for p in passes if not p["traced"]])
    else:
        values, notes = end_to_end(passes)
    if set(values) != {m["name"] for m in declared}:
        raise PassError("metrics differ from BENCHMARK.json: "
                        f"{sorted(set(values) ^ {m['name'] for m in declared})}")

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    for note in notes:
        print(f"# {workload}: {note}")
    print(f"# {workload}: error_rate {failed / attempted:.6g} "
          f"({failed} of {attempted} ops failed)")
    for problem in [x for p in passes for x in p["problems"]][:5]:
        print(f"# {workload}: failed: {problem}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                        for m in declared}}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (ROOT / "src" / "spgames" / "__init__.py").is_file():
        print(f"error: no spgames sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except PassError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
