"""Self-test of the benchmark's own gates.

    python3 perfbench/selftest.py

1. For each workload, one pass with its first result deliberately
   corrupted must report exactly that op as failed.
2. The tracer must wrap a function at every binding site, including the
   package re-export of `best_response` and the by-name imports in
   `metrics`, `report` and `cli`, and `Tracer.verify` must flag an
   original still held by a module imported after installation or by a
   list.

Exits 0 when every check holds and 1 otherwise.
"""

import shutil
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import tracing  # noqa: E402


def corrupted_results_fail() -> list[str]:
    problems = []
    for workload in run.WORKLOADS:
        result = run.run_pass(workload, seed=1, traced=False, corrupt=True)
        if result["failed"] != 1:
            problems.append(f"{workload}: corrupted result gave "
                            f"{result['failed']} failed ops, expected 1")
        else:
            print(f"ok {workload}: corrupted result flagged: {result['problems'][0]}")
    return problems


def expect_flagged(tracer, where: str) -> list[str]:
    try:
        tracer.verify()
    except tracing.TracingError as exc:
        print(f"ok tracer: original in {where} flagged: {exc}")
        return []
    return [f"verify missed an original in {where}"]


def binding_sites_complete() -> list[str]:
    import spgames
    import spgames.cli  # noqa: F401  (binds report and serialize names)
    metrics = sys.modules["spgames.metrics"]
    home = sys.modules["spgames.best_response"]
    original_opt = metrics.compute_opt
    original_br = home.best_response
    tracer = tracing.Tracer()
    tracer.install()
    problems = []
    sites = {
        "spgames.best_response": spgames.best_response,
        "spgames.equilibria.best_response": sys.modules["spgames.equilibria"].best_response,
        "spgames.metrics.enumerate_nash": metrics.enumerate_nash,
        "spgames.report.empirical_poa": sys.modules["spgames.report"].empirical_poa,
        "spgames.cli.paper_suite_rows": sys.modules["spgames.cli"].paper_suite_rows,
        "spgames.cli.dumps_document": sys.modules["spgames.cli"].dumps_document,
    }
    for site, value in sites.items():
        if getattr(value, "__module__", None) != tracing.__name__:
            problems.append(f"{site} is not wrapped")
    if spgames.best_response is original_br:
        problems.append("package re-export of best_response is not wrapped")

    late = types.ModuleType("late_import")
    late.compute_opt = original_opt
    sys.modules[late.__name__] = late
    problems += expect_flagged(tracer, "a module imported after installation")
    del sys.modules[late.__name__]
    del late.compute_opt

    held = [original_br]
    call_late = lambda: held[0]()  # noqa: E731  (a closure holding a list)
    problems += expect_flagged(tracer, "a list a closure holds")
    held.clear()
    del call_late
    tracer.verify()
    if not problems:
        print(f"ok tracer: {len(sites)} by-name binding sites wrapped")
    return problems


def main() -> int:
    try:
        problems = binding_sites_complete() + corrupted_results_fail()
    finally:
        shutil.rmtree(ROOT / ".perfbench_tmp", ignore_errors=True)
    for problem in problems:
        print(f"FAIL {problem}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
