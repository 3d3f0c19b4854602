"""Bit-exact JSON documents for instances, profiles, and reports.

Rationals always travel as strings ("3" or "3/2", never JSON floats) so
that documents round-trip losslessly.  Decimal fields are presentation
only and never feed back into any decision.
"""

from __future__ import annotations

import json
import re
from dataclasses import fields
from fractions import Fraction
from typing import Any, Optional

from .bounds import RationalInterval
from .equilibria import EquilibriumReport
from .errors import InputError, _integer
from .best_response import DeviationWitness
from .feasibility import (ExplicitSystem, FeasibilitySystem,
                          IdenticalMachinesSystem, JobWindow,
                          SharedSymmetricSystem, SingleMachineSystem,
                          TimeWindow, UnrelatedMachinesSystem)
from .metrics import PoAResult
from .model import Instance, Item, Profile

# ASCII digits only: a weight in other digits would not round-trip.
_RATIONAL_RE = re.compile(r"^[+-]?\d+(/\d+)?$", re.ASCII)


def parse_rational(value, field: str = "value") -> Fraction:
    """Parse an exact rational from "p/q" or integer form.

    Rejects floats, decimal strings, and zero denominators.
    """
    if isinstance(value, bool):
        raise InputError(f"{field}: expected a rational string, got a bool")
    if isinstance(value, int):
        return Fraction(value)
    if not isinstance(value, str) or not _RATIONAL_RE.match(value.strip()):
        raise InputError(
            f"{field}: expected an integer or 'p/q' string, got {value!r}")
    numerator, _, denominator = value.strip().partition("/")
    try:
        numerator, denominator = int(numerator), int(denominator or 1)
    except ValueError as exc:  # past the interpreter's digit limit
        raise InputError(f"{field}: {exc}") from exc
    if denominator == 0:
        raise InputError(f"{field}: zero denominator in {value!r}")
    return Fraction(numerator, denominator)


def rational_str(value: Fraction) -> str:
    try:
        return str(Fraction(value))
    except ValueError as exc:  # past the interpreter's digit limit
        raise InputError(f"rational too long to print: {exc}") from exc


def decimal_str(value: Fraction) -> str:
    """Presentation-only rendering of an exact rational to six decimals.

    A value in float range is rounded as its float; a larger one is
    rounded exactly, half to even.
    """
    try:
        return f"{float(value):.6f}"
    except OverflowError:
        scaled = round(Fraction(value) * 10 ** 6)
        whole, part = divmod(abs(scaled), 10 ** 6)
        sign = "-" if scaled < 0 else ""
        return f"{sign}{rational_str(whole)}.{part:06d}"


def _window_doc(window: JobWindow) -> dict[str, str]:
    return {"release": rational_str(window.release),
            "processing": rational_str(window.processing),
            "deadline": rational_str(window.deadline)}


def _system_descriptor(system: FeasibilitySystem) -> dict[str, Any]:
    if isinstance(system, ExplicitSystem):
        return {"kind": "explicit",
                "maximal_sets": [sorted(s) for s in system.maximal_sets]}
    if isinstance(system, SingleMachineSystem):
        return {"kind": "single_machine",
                "jobs": {i: _window_doc(w) for i, w in system.jobs}}
    if isinstance(system, IdenticalMachinesSystem):
        return {"kind": "identical_machines", "copies": system.copies,
                "jobs": {i: _window_doc(w) for i, w in system.jobs}}
    if isinstance(system, UnrelatedMachinesSystem):
        processing: dict[str, dict[str, str]] = {}
        for (machine, item), duration in system.processing:
            processing.setdefault(machine, {})[item] = rational_str(duration)
        return {"kind": "unrelated_machines",
                "machines": list(system.machines),
                "processing": processing,
                "jobs": {i: {"release": rational_str(w.release),
                             "deadline": rational_str(w.deadline)}
                         for i, w in system.jobs}}
    if isinstance(system, SharedSymmetricSystem):
        return {"kind": "shared_symmetric", "copies": system.copies}
    raise InputError(f"cannot serialize feasibility system {type(system).__name__}")


def _parse_jobs(doc, field: str, window_type=JobWindow
                ) -> dict[str, JobWindow | TimeWindow]:
    """Each job's window of `window_type`, its fields read in their order;
    a missing release is 0."""
    if not isinstance(doc, dict):
        raise InputError(f"{field}: jobs must be an object")
    out = {}
    for item_id, window in doc.items():
        if not isinstance(window, dict):
            raise InputError(f"{field}: job {item_id!r} must be an object")
        out[str(item_id)] = window_type(**{
            name: parse_rational(window.get(name, "0" if name == "release"
                                            else None),
                                 f"{field}.{item_id}.{name}")
            for name in (entry.name for entry in fields(window_type))})
    return out


def _parse_descriptor(doc, field: str,
                      base: Optional[FeasibilitySystem]) -> FeasibilitySystem:
    """The system a descriptor names; errors start with `field`."""
    if not isinstance(doc, dict):
        raise InputError(f"{field}: descriptor must be an object")
    kind = doc.get("kind")
    if kind == "explicit":
        sets = doc.get("maximal_sets")
        if not isinstance(sets, list) or not all(isinstance(s, list) for s in sets):
            raise InputError(f"{field}: maximal_sets must be a list of lists")
        return ExplicitSystem(maximal_sets=tuple(
            frozenset(str(i) for i in s) for s in sets))
    if kind == "single_machine":
        return SingleMachineSystem(jobs=_parse_jobs(doc.get("jobs"), field))
    if kind == "identical_machines":
        return IdenticalMachinesSystem(
            copies=_integer(doc.get("copies"), name=f"{field}: copies",
                            minimum=1),
            jobs=_parse_jobs(doc.get("jobs"), field))
    if kind == "unrelated_machines":
        machines = doc.get("machines")
        if not isinstance(machines, list) or not machines:
            raise InputError(f"{field}: machines must be a nonempty list")
        processing_doc = doc.get("processing")
        if not isinstance(processing_doc, dict):
            raise InputError(f"{field}: processing must be an object")
        processing = {}
        for machine, per_item in processing_doc.items():
            if not isinstance(per_item, dict):
                raise InputError(f"{field}: processing.{machine} must be an object")
            for item, duration in per_item.items():
                processing[(str(machine), str(item))] = parse_rational(
                    duration, f"{field}.processing.{machine}.{item}")
        return UnrelatedMachinesSystem(
            machines=tuple(str(m) for m in machines), processing=processing,
            jobs=_parse_jobs(doc.get("jobs"), field, TimeWindow))
    if kind == "shared_symmetric":
        if base is None:
            raise InputError(
                f"{field}: shared_symmetric needs a symmetric_base section")
        return SharedSymmetricSystem(
            base=base, copies=_integer(doc.get("copies"),
                                       name=f"{field}: copies", minimum=1))
    raise InputError(f"{field}: unknown feasibility kind {kind!r}")


def instance_to_document(instance: Instance,
                         meta: Optional[dict] = None) -> dict[str, Any]:
    """Serialize an instance to its JSON document form."""
    shared = [p for p in instance.players
              if isinstance(p, SharedSymmetricSystem)]
    if shared and not instance.symmetric:
        raise InputError(
            "only fully symmetric instances with one shared base serialize")
    doc: dict[str, Any] = {
        "items": [{"id": item.id, "weight": rational_str(item.weight)}
                  for item in instance.items],
        "players": [_system_descriptor(p) for p in instance.players],
    }
    if instance.symmetric:
        doc["symmetric_base"] = _system_descriptor(shared[0].base)
    if meta:
        doc["meta"] = meta
    return doc


def document_to_instance(doc) -> tuple[Instance, dict]:
    """Parse an instance document; returns the instance and its meta."""
    if not isinstance(doc, dict):
        raise InputError("instance document must be a JSON object")
    items_doc = doc.get("items")
    if not isinstance(items_doc, list):
        raise InputError("instance document needs an 'items' array")
    items = []
    for entry in items_doc:
        if not isinstance(entry, dict) or "id" not in entry:
            raise InputError(f"malformed item entry: {entry!r}")
        items.append(Item(str(entry["id"]),
                          parse_rational(entry.get("weight"),
                                         f"item {entry['id']} weight")))
    players_doc = doc.get("players")
    if not isinstance(players_doc, list) or not players_doc:
        raise InputError("instance document needs a nonempty 'players' array")
    base = None
    if "symmetric_base" in doc:
        base = _parse_descriptor(doc["symmetric_base"], "symmetric_base", None)
    players = tuple(_parse_descriptor(entry, f"player {index + 1}", base)
                    for index, entry in enumerate(players_doc))
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        raise InputError("'meta' must be an object")
    return Instance(items=tuple(items), players=players), meta


def profile_to_document(profile: Profile) -> dict[str, list[str]]:
    """Player (1-based, as a string) to sorted item-id list."""
    return {str(index + 1): sorted(selected)
            for index, selected in enumerate(profile.sets)}


def document_to_profile(doc, instance: Instance) -> Profile:
    if not isinstance(doc, dict):
        raise InputError("profile document must be a JSON object")
    expected = {str(i + 1) for i in range(instance.n)}
    if set(doc) != expected:
        raise InputError(
            f"profile document must have exactly the player keys "
            f"{sorted(expected, key=int)}, got {sorted(doc)}")
    sets = []
    for index in range(instance.n):
        entry = doc[str(index + 1)]
        if not isinstance(entry, list):
            raise InputError(f"player {index + 1}: item list expected")
        selected = frozenset(str(i) for i in entry)
        unknown = selected - instance.item_ids
        if unknown:
            raise InputError(
                f"player {index + 1}: unknown item ids {sorted(unknown)}")
        sets.append(selected)
    return Profile(tuple(sets))


def witness_to_document(witness: DeviationWitness) -> dict[str, Any]:
    return {
        "players": [p + 1 for p in witness.players],
        "proposed": {str(p + 1): sorted(s)
                     for p, s in zip(witness.players, witness.proposed)},
        "old_value": rational_str(witness.old_value),
        "new_value": rational_str(witness.new_value),
    }


def report_to_document(report: EquilibriumReport) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "concept": report.concept,
        "alpha": rational_str(report.alpha),
        "verdict": report.verdict,
        "welfare": rational_str(report.welfare),
        "witness": (witness_to_document(report.witness)
                    if report.witness is not None else None),
    }
    if report.k is not None:
        doc["k"] = report.k
    if report.order is not None:
        doc["order"] = [p + 1 for p in report.order]
    return doc


def bound_to_document(bound) -> Any:
    if bound is None:
        return None
    if isinstance(bound, RationalInterval):
        return {"lo": rational_str(bound.lo), "hi": rational_str(bound.hi),
                "decimal": decimal_str((bound.lo + bound.hi) / 2)}
    return rational_str(bound)


def poa_to_document(result: PoAResult) -> dict[str, Any]:
    doc: dict[str, Any] = {
        "concept": result.concept,
        "alpha": rational_str(result.alpha),
        "opt_welfare": rational_str(result.opt_welfare),
        "worst_equilibrium_welfare": rational_str(
            result.worst_equilibrium_welfare),
        "ratio": rational_str(result.ratio),
        "ratio_decimal": decimal_str(result.ratio),
        "bound": bound_to_document(result.bound),
        "bound_satisfied": result.bound_satisfied,
        "worst_profile": profile_to_document(result.worst_profile),
        "opt_profile": profile_to_document(result.opt_profile),
    }
    if result.k is not None:
        doc["k"] = result.k
    if result.orders_examined is not None:
        doc["orders_examined"] = result.orders_examined
    return doc


def dumps_document(doc) -> str:
    """Deterministic, newline-terminated JSON rendering."""
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def loads_document(text: str):
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and numbers past the
        # interpreter's digit limit.
        raise InputError(f"malformed JSON: {exc}") from exc
