"""Write pins.json: the digests the benchmark's correctness gate compares with.

    python3 perfbench/make_pins.py

The committed pins were made from the seed commit of the program, before
any performance work.  They record, for every game of the two corpora,
a digest of the exact ratios and worst profiles, and the SHA-256
of the paper report's TSV and JSON.  Regenerating them from a changed
program would let a wrong answer pass; do so only when a change is meant
to alter these answers, and say why.
"""

import json
import shutil
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import reference  # noqa: E402
import workloads  # noqa: E402


def corpus_pins(workload) -> dict[str, str]:
    out = {}
    for seed in workloads.CORPUS:
        game = workload.build_one(seed)
        record = workload.record((seed, game), workload.op((seed, game)))
        out[str(seed)] = reference.digest(
            [line for row in record["rows"] for line in row["lines"]])
    return out


def main() -> int:
    scratch = ROOT / ".perfbench_tmp"
    report = workloads.PaperReport(scratch)
    record = report.record(None, report.op(None))
    shutil.rmtree(scratch)
    if record["exit"] != 0 or record["stdout"] != record["files"]["report.tsv"]:
        raise SystemExit(f"paper report is not a clean run: {record}")
    pins = {"paper_report": record["files"]}
    for workload in (workloads.CollusionCorpus(), workloads.SpeSymmetric()):
        pins[workload.name] = corpus_pins(workload)
    workloads.PINS_PATH.write_text(json.dumps(pins, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
