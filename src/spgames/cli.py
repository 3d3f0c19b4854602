"""Command-line front end.

Exit codes form a stable contract: 0 verified or success, 1 refuted with
a witness (or a failing report row), 2 input error, 3 search budget
exceeded or the search ran out of stack or memory.  All output is UTF-8,
newline-terminated JSON or TSV; rationals are printed exactly, decimals
only as presentation extras.  A call builds the parser of only the
subcommand it runs; help and parse errors come from the full tree.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from fractions import Fraction
from pathlib import Path

from .equilibria import (enumerate_collusion, enumerate_nash,
                         enumerate_spe_outcomes, verify_collusion, verify_nash,
                         verify_spe_outcome)
from .errors import BudgetExceededError, InputError, _integer
from .factory import (FAMILIES, PAPER_FAMILIES, PARAMETERS, GeneratorSpec,
                      generate, reference_profiles)
from .metrics import (compute_opt, empirical_collusion_poa, empirical_poa,
                      empirical_sequential_poa)
from .model import Instance, Profile
from .report import paper_suite_rows, rows_to_json, rows_to_tsv
from .serialize import (document_to_instance, document_to_profile,
                        dumps_document, instance_to_document, loads_document,
                        parse_rational, poa_to_document, profile_to_document,
                        rational_str, report_to_document)

EXIT_OK = 0
EXIT_REFUTED = 1
EXIT_INPUT = 2
EXIT_BUDGET = 3


def _write(text: str) -> None:
    sys.stdout.write(text)


def _read(path: str, what: str) -> str:
    """The UTF-8 text of the `what` file at `path`."""
    try:
        return Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError(f"cannot read {what} file {path}: {exc}") from exc


def _write_files(out: str, texts: dict[str, str]) -> Path:
    """Write each text to its file name in the directory `out`, made if
    missing, and return that directory."""
    out_dir = Path(out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        for name, text in texts.items():
            (out_dir / name).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write to {out}: {exc}") from exc
    return out_dir


def _load_instance(path: str) -> Instance:
    instance, _ = document_to_instance(loads_document(_read(path, "instance")))
    return instance


def _load_profile(path: str, instance: Instance) -> Profile:
    return document_to_profile(loads_document(_read(path, "profile")), instance)


_INTEGER_RE = re.compile(r"[+-]?[0-9]+")


def _parse_integer(text: str, field: str) -> int:
    """`text` as an integer, written as `parse_rational` reads one: ASCII
    digits after an optional sign, whitespace around them ignored.  The
    non-ASCII digits and underscores that `int` takes are input errors."""
    if not _INTEGER_RE.fullmatch(text.strip()):
        raise InputError(f"{field} must be an integer, got {text!r}")
    try:
        return int(text)
    except ValueError as exc:  # past the interpreter's digit limit
        raise InputError(f"{field}: {exc}") from exc


def _budget(args) -> int | None:
    if getattr(args, "budget", None) is not None:
        field, text = "--budget", args.budget
    else:
        field, text = "SPG_BUDGET", os.environ.get("SPG_BUDGET")
        if not text:
            return None
    return _integer(_parse_integer(text, field), name=field, minimum=1)


def _k(args) -> int:
    if args.k is None:
        raise InputError("--k is required for concept collusion")
    return _parse_integer(args.k, "--k")


def _parse_order(text: str, instance: Instance) -> tuple[int, ...]:
    order = tuple(_parse_integer(part, "--order entry") - 1
                  for part in text.split(","))
    if sorted(order) != list(range(instance.n)):
        raise InputError(
            f"--order must be a permutation of 1..{instance.n}, got {text!r}")
    return order


def _generator_spec(args) -> GeneratorSpec:
    params = {}
    for name in PARAMETERS:
        text = getattr(args, name)
        if text is not None:
            field = "--" + name.replace("_", "-")
            params[name] = (parse_rational(text, field) if name == "alpha"
                            else _parse_integer(text, field))
    return GeneratorSpec.make(args.family, **params)


def _cmd_generate(args) -> int:
    spec = _generator_spec(args)
    instance = generate(spec)
    meta = {"family": spec.family,
            "params": {name: rational_str(value) if isinstance(value, Fraction)
                       else value for name, value in spec.params}}
    instance_doc = instance_to_document(instance, meta=meta)
    profiles = {}
    if spec.family in PAPER_FAMILIES:
        profiles = {name: profile_to_document(profile)
                    for name, profile in reference_profiles(spec).items()}
    if args.out:
        texts = {"instance.json": dumps_document(instance_doc)}
        texts.update((f"profile_{name}.json", dumps_document(doc))
                     for name, doc in profiles.items())
        out_dir = _write_files(args.out, texts)
        _write(dumps_document({"written": sorted(texts), "out": str(out_dir)}))
    else:
        _write(dumps_document({"instance": instance_doc, "profiles": profiles}))
    return EXIT_OK


def _cmd_verify(args) -> int:
    instance = _load_instance(args.instance)
    profile = _load_profile(args.profile, instance)
    alpha = parse_rational(args.alpha, "--alpha")
    budget = _budget(args)
    if args.concept == "nash":
        report = verify_nash(instance, profile, alpha, budget)
    elif args.concept == "spe":
        if args.order is None:
            raise InputError("--order is required for concept spe")
        order = _parse_order(args.order, instance)
        report = verify_spe_outcome(instance, profile, order, alpha, budget)
    else:
        report = verify_collusion(instance, profile, _k(args), alpha, budget)
    _write(dumps_document(report_to_document(report)))
    return EXIT_OK if report.verdict else EXIT_REFUTED


def _cmd_opt(args) -> int:
    instance = _load_instance(args.instance)
    profile, value = compute_opt(instance, _budget(args))
    _write(dumps_document({"welfare": rational_str(value),
                           "profile": profile_to_document(profile)}))
    return EXIT_OK


def _listing(instance: Instance, key: str, profiles, **fields) -> int:
    """Write profiles found by a search with their welfare, the weight of
    their items (a search yields valid profiles only)."""
    _write(dumps_document({**fields, "count": len(profiles), key: [
        {"profile": profile_to_document(p),
         "welfare": rational_str(instance.weight_of(p.all_items()))}
        for p in profiles]}))
    return EXIT_OK


def _cmd_nash(args) -> int:
    instance = _load_instance(args.instance)
    alpha = parse_rational(args.alpha, "--alpha")
    return _listing(instance, "equilibria",
                    enumerate_nash(instance, alpha, _budget(args)),
                    alpha=rational_str(alpha))


def _cmd_spe(args) -> int:
    instance = _load_instance(args.instance)
    alpha = parse_rational(args.alpha, "--alpha")
    order = _parse_order(args.order, instance)
    return _listing(instance, "outcomes",
                    enumerate_spe_outcomes(instance, order, alpha, _budget(args)),
                    alpha=rational_str(alpha), order=[p + 1 for p in order])


def _cmd_collusion(args) -> int:
    instance = _load_instance(args.instance)
    alpha = parse_rational(args.alpha, "--alpha")
    k = _k(args)
    return _listing(instance, "equilibria",
                    enumerate_collusion(instance, k, alpha, _budget(args)),
                    alpha=rational_str(alpha), k=k)


def _cmd_poa(args) -> int:
    instance = _load_instance(args.instance)
    alpha = parse_rational(args.alpha, "--alpha")
    budget = _budget(args)
    if args.concept == "nash":
        result = empirical_poa(instance, alpha, budget)
    elif args.concept == "spe":
        result = empirical_sequential_poa(instance, alpha, budget)
    else:
        result = empirical_collusion_poa(instance, _k(args), alpha, budget)
    _write(dumps_document(poa_to_document(result)))
    return EXIT_OK


def _cmd_report(args) -> int:
    if args.suite != "paper":
        raise InputError(f"unknown suite {args.suite!r}")
    rows = paper_suite_rows(_budget(args))
    tsv = rows_to_tsv(rows)
    doc = dumps_document(rows_to_json(rows))
    if args.out:
        _write_files(args.out, {"report.tsv": tsv, "report.json": doc})
    _write(tsv)
    return EXIT_OK if all(row.satisfied for row in rows) else EXIT_REFUTED


def _required(option):
    flag, settings = option
    return flag, {**settings, "required": True}


def _commands() -> dict:
    """Each subcommand's help, handler and options, an option being a flag
    and its `add_argument` keywords.  Built on each call, so a handler is
    looked up when the call runs."""
    instance = "--instance", {"required": True}
    alpha = "--alpha", {"default": "1"}
    budget = "--budget", {}
    concept = "--concept", {"required": True,
                            "choices": ["nash", "spe", "collusion"]}
    k, order = ("--k", {}), ("--order", {})
    out = "--out", {}
    return {
        # Every number is read as text, then parsed exactly
        # (`_generator_spec`).
        "generate": ("generate an instance family", _cmd_generate, [
            ("family", {"choices": FAMILIES}),
            *(("--" + name.replace("_", "-"), {}) for name in PARAMETERS),
            out]),
        "verify": ("verify a profile against a concept", _cmd_verify, [
            instance, ("--profile", {"required": True}), concept, alpha, k,
            order, budget]),
        "opt": ("compute the centralized optimum", _cmd_opt,
                [instance, budget]),
        "nash": ("enumerate approximate Nash profiles", _cmd_nash,
                 [instance, alpha, budget]),
        "spe": ("enumerate sequential outcomes", _cmd_spe,
                [instance, _required(order), alpha, budget]),
        "collusion": ("enumerate k-collusion profiles", _cmd_collusion,
                      [instance, _required(k), alpha, budget]),
        "poa": ("measure a price of anarchy", _cmd_poa,
                [instance, concept, alpha, k, budget]),
        "report": ("run the bound-reproduction suite", _cmd_report,
                   [("--suite", {"default": "paper"}), out, budget]),
    }


def _build_parser(name: str | None = None) -> argparse.ArgumentParser:
    """The `spg` parser with only the subcommand `name`, or with all of
    them when `name` is none of theirs."""
    parser = argparse.ArgumentParser(
        prog="spg",
        description="Set packing games: equilibrium verification, "
                    "enumeration, and price-of-anarchy measurements.")
    sub = parser.add_subparsers(dest="command", required=True)
    commands = _commands()
    for command, (help_text, func, options) in commands.items():
        if name not in commands or command == name:
            subparser = sub.add_parser(command, help=help_text)
            for flag, settings in options:
                subparser.add_argument(flag, **settings)
            subparser.set_defaults(func=func)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv[0] if argv else None)
    args, extra = parser.parse_known_args(argv)
    if extra:  # the error's usage line names every subcommand
        args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except BudgetExceededError as exc:
        _write(dumps_document({"error": "budget-exceeded", "detail": str(exc)}))
        return EXIT_BUDGET
    except (RecursionError, MemoryError) as exc:
        # No search recurses per item and nested JSON input is an input
        # error; this is the last guard for what can still exhaust the
        # interpreter, such as a job set too large for memory.
        _write(dumps_document({"error": "resources-exhausted",
                               "detail": f"{type(exc).__name__}: {exc}"}))
        return EXIT_BUDGET


if __name__ == "__main__":
    sys.exit(main())
