"""The four benchmark workloads.

Each workload builds its inputs from the run seed with the package's own
generators (`build`), runs one op per input (`op`, the only timed part),
turns the raw result into plain values (`record`) and checks those
values against independent references and pins taken at the seed commit
(`check`).  `corrupt` damages one record so that a self-test can show
that `check` flags it.

Functions are looked up on their module at call time, so that the
traced run sees every call through its wrappers.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import importlib
import io
import json
import random
import shutil
import tempfile
from fractions import Fraction
from itertools import permutations
from pathlib import Path

import reference

equilibria = importlib.import_module("spgames.equilibria")
factory = importlib.import_module("spgames.factory")
metrics = importlib.import_module("spgames.metrics")
model = importlib.import_module("spgames.model")
cli = importlib.import_module("spgames.cli")

PINS_PATH = Path(__file__).with_name("pins.json")
ALPHAS = (Fraction(1), Fraction(3, 2))
# The corpora are the first 61 seeds of each generator shape, and the run
# seed only shuffles the order of their ops.  Op costs are heavy-tailed:
# over the 51 slices of 60 consecutive seeds, balanced by shape, between
# 0 and 660, the inter-quartile range of a slice's total time is 40% of
# its median, and of its tail latency 52%, so a seed that picked the slice
# would make every run a different benchmark.  An odd count puts the
# median op inside one game's group of samples rather than between two.
CORPUS = range(61)


@functools.cache
def pins() -> dict:
    return json.loads(PINS_PATH.read_text())


def _generate(family: str, **params):
    return factory.generate(factory.GeneratorSpec.make(family, **params))


def _shuffled(seed: int) -> list[int]:
    order = list(CORPUS)
    random.Random(seed).shuffle(order)
    return order


def _poa_lines(label: str, result) -> list[str]:
    return [label, str(result.ratio), str(result.opt_welfare),
            str(result.worst_equilibrium_welfare),
            reference.sets_text(result.worst_profile.sets)]


class CollusionCorpus:
    name = "collusion_corpus"

    def build_one(self, s: int):
        return _generate("random_explicit", n=1 + s % 3, items=3 + s % 4,
                         max_weight=8, seed=s)

    def build(self, seed: int) -> list:
        return [(s, self.build_one(s)) for s in _shuffled(seed)]

    def op(self, item):
        _, game = item
        return [(k, alpha, metrics.empirical_collusion_poa(game, k, alpha))
                for k in range(1, game.n + 1) for alpha in ALPHAS]

    def record(self, item, raw) -> dict:
        seed, game = item
        return {"seed": seed, "n": game.n,
                "rows": [{"k": k, "alpha": str(alpha), "ratio": str(r.ratio),
                          "satisfied": r.bound_satisfied,
                          "lines": _poa_lines(f"k={k},alpha={alpha}", r)}
                         for k, alpha, r in raw]}

    def check(self, rec: dict) -> list[str]:
        problems = []
        n = rec["n"]
        for row in rec["rows"]:
            k, alpha, ratio = row["k"], Fraction(row["alpha"]), Fraction(row["ratio"])
            where = f"seed {rec['seed']} k={k} alpha={alpha}"
            if not row["satisfied"]:
                problems.append(f"{where}: bound_satisfied is False")
            if n >= 2 and ratio > reference.collusion_bound(alpha, n, k):
                problems.append(f"{where}: ratio {ratio} above the bound")
            if k == n and alpha == 1 and ratio != 1:
                problems.append(f"{where}: ratio {ratio} is not 1")
        lines = [line for row in rec["rows"] for line in row["lines"]]
        if reference.digest(lines) != pins()[self.name][str(rec["seed"])]:
            problems.append(f"seed {rec['seed']}: ratios or worst profiles "
                            "differ from the pinned digest")
        return problems

    def corrupt(self, rec: dict) -> None:
        rec["rows"][0]["ratio"] = str(Fraction(rec["rows"][0]["ratio"]) + 1)
        rec["rows"][0]["lines"][1] = rec["rows"][0]["ratio"]


class SeqDeadlineTrend:
    name = "seq_deadline_trend"
    # An odd count of sizes puts the median op inside one size's group
    # rather than on the boundary between two.
    sizes = range(3, 32)

    def build(self, seed: int) -> list:
        out = []
        for n in self.sizes:
            order = list(range(n))
            random.Random(seed * 1000 + n).shuffle(order)
            out.append((n, tuple(order), _generate("ex_seq", n=n)))
        return out

    def op(self, item):
        _, order, game = item
        profile = equilibria.greedy_sequential_outcome(game, order, 1, "deadline")
        return model.welfare(game, profile)

    def record(self, item, raw) -> dict:
        return {"n": item[0], "welfare": str(raw)}

    def check(self, rec: dict) -> list[str]:
        n, value = rec["n"], Fraction(rec["welfare"])
        problems = []
        expected = sum(reference.deadline_rounds(n))
        if value != expected:
            problems.append(f"n={n}: welfare {value}, reference {expected}")
        # The optimum packs all n*n unit jobs.
        if value <= 0 or Fraction(n * n) / value >= reference.SEQUENTIAL_BOUND_LOWER:
            problems.append(f"n={n}: ratio not certified below e/(e-1)")
        return problems

    def corrupt(self, rec: dict) -> None:
        rec["welfare"] = str(Fraction(rec["welfare"]) - 1)


class PaperReport:
    name = "paper_report"

    def __init__(self, scratch: Path):
        self.scratch = scratch

    def build(self, seed: int) -> list:
        return [None]  # fixed inputs: the paper suite ignores the seed

    def op(self, item):
        self.scratch.mkdir(parents=True, exist_ok=True)
        out_dir = tempfile.mkdtemp(dir=self.scratch)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = cli.main(["report", "--suite", "paper", "--out", out_dir])
        return code, stdout.getvalue(), out_dir

    def record(self, item, raw) -> dict:
        code, stdout, out_dir = raw
        files = {name: hashlib.sha256((Path(out_dir) / name).read_bytes()).hexdigest()
                 for name in ("report.tsv", "report.json")}
        shutil.rmtree(out_dir)
        return {"exit": code, "files": files,
                "stdout": hashlib.sha256(stdout.encode("utf-8")).hexdigest()}

    def check(self, rec: dict) -> list[str]:
        problems = []
        if rec["exit"] != 0:
            problems.append(f"exit code {rec['exit']}")
        pinned = pins()[self.name]
        for name, value in rec["files"].items():
            if value != pinned[name]:
                problems.append(f"{name} differs from the seed output")
        if rec["stdout"] != pinned["report.tsv"]:
            problems.append("stdout differs from the seed TSV")
        return problems

    def corrupt(self, rec: dict) -> None:
        rec["files"]["report.json"] = "0" * 64


class SpeSymmetric:
    name = "spe_symmetric"

    def build_one(self, s: int):
        return _generate("random_symmetric", n=2 + s % 3, copies=3, seed=s)

    def build(self, seed: int) -> list:
        return [(s, self.build_one(s)) for s in _shuffled(seed)]

    def op(self, item):
        _, game = item
        out = []
        for alpha in ALPHAS:
            result = metrics.empirical_sequential_poa(game, alpha)
            verdicts = [equilibria.verify_nash(game, outcome, alpha).verdict
                        for order in permutations(range(game.n))
                        for outcome in equilibria.enumerate_spe_outcomes(
                            game, order, alpha)]
            out.append((alpha, result, verdicts))
        return out

    def record(self, item, raw) -> dict:
        return {"seed": item[0],
                "rows": [{"alpha": str(alpha), "satisfied": r.bound_satisfied,
                          "outcomes": len(verdicts), "nash": sum(verdicts),
                          "lines": _poa_lines(f"alpha={alpha}", r)}
                         for alpha, r, verdicts in raw]}

    def check(self, rec: dict) -> list[str]:
        problems = []
        for row in rec["rows"]:
            where = f"seed {rec['seed']} alpha={row['alpha']}"
            if not row["satisfied"]:
                problems.append(f"{where}: bound_satisfied is False")
            if row["nash"] != row["outcomes"]:
                problems.append(f"{where}: {row['outcomes'] - row['nash']} "
                                "sequential outcomes are not Nash")
        lines = [line for row in rec["rows"] for line in row["lines"]]
        if reference.digest(lines) != pins()[self.name][str(rec["seed"])]:
            problems.append(f"seed {rec['seed']}: ratios or worst profiles "
                            "differ from the pinned digest")
        return problems

    def corrupt(self, rec: dict) -> None:
        rec["rows"][0]["nash"] -= 1


def get(name: str, scratch: Path):
    if name == PaperReport.name:
        return PaperReport(scratch)
    for cls in (CollusionCorpus, SeqDeadlineTrend, SpeSymmetric):
        if cls.name == name:
            return cls()
    raise KeyError(name)
