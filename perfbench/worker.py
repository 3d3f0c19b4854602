"""One measured pass of a workload, run in a fresh interpreter.

    python3 perfbench/worker.py <workload> <seed> <trace 0|1> <corrupt 0|1>

A fresh interpreter per pass keeps every pass cold: the process-wide
`lru_cache` behind `spgames.best_response` starts empty, so no pass times
cache hits left over from another.  The pass times set-up (importing
`spgames` and building the inputs), then each op, and checks every
result after the timed region.  With corrupt 1 the first result is
damaged before its check, which must then count the op as failed.

Set-up and op times are reported both as wall times and corrected for
host speed (`hostclock.py`).  A traced pass's per-layer self times are
wall times, which include the host-speed samples taken during each call
(2-4% of the time, spread evenly).  The last line of standard output is
the pass result as JSON.
"""

import sys
import time

START = time.perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
from pathlib import Path  # noqa: E402

import hostclock  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str]) -> int:
    name, seed, traced, corrupt = argv[0], int(argv[1]), argv[2] == "1", argv[3] == "1"
    host = hostclock.HostClock()
    host.start()
    begin = (START, 0, 0.0)

    sys.path.insert(0, str(ROOT / "src"))
    import tracing
    import workloads  # imports spgames
    workload = workloads.get(name, ROOT / ".perfbench_tmp")
    tracer = None
    if traced:
        tracer = tracing.Tracer()
        tracer.install()
    inputs = workload.build(seed)

    setup = hostclock.interval(begin, host.mark())
    intervals, raws = [], []
    self_before = tracer.self_total() if tracer else 0.0
    loop_start = time.perf_counter()
    for item in inputs:
        start = host.mark()
        try:
            raw = workload.op(item)
        except Exception as exc:  # an op that raises is a failed op; go on
            raw = exc
        intervals.append(hostclock.interval(start, host.mark()))
        raws.append(raw)
    loop_s = time.perf_counter() - loop_start
    host.stop()
    if tracer:
        # Both times include the host-speed samples taken during the ops.
        self_s_share = (tracer.self_total() - self_before) / loop_s
        tracer.verify()

    failed, problems = 0, []
    for index, (item, raw) in enumerate(zip(inputs, raws)):
        if isinstance(raw, Exception):
            found = [f"{type(raw).__name__}: {raw}"]
        else:
            try:
                record = workload.record(item, raw)
                if corrupt and index == 0:
                    workload.corrupt(record)
                found = workload.check(record)
            except Exception as exc:  # a result the check cannot read
                found = [f"check raised {type(exc).__name__}: {exc}"]
        if found:
            failed += 1
            problems.append(found[0])

    result = {
        "setup_s": host.scaled(setup),
        "latencies": [host.scaled(i) for i in intervals],
        "wall_setup_s": setup[0],
        "wall_latencies": [i[0] for i in intervals],
        "attempted": len(inputs),
        "failed": failed,
        "problems": problems[:5],
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer:
        result["layers"] = tracer.metrics()
        result["self_s_share"] = self_s_share
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
