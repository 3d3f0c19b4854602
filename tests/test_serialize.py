"""JSON document formats: lossless round-trips and strict parsing."""

from fractions import Fraction

import pytest

from spgames import (FeasibilitySystem, GeneratorSpec, InputError, Instance,
                     Item, generate, reference_profiles)
from spgames.serialize import (bound_to_document, decimal_str,
                               document_to_instance,
                               document_to_profile, dumps_document,
                               instance_to_document, loads_document,
                               parse_rational, profile_to_document,
                               rational_str)

ROUND_TRIP_SPECS = [
    GeneratorSpec.make("ex_trivial"),
    GeneratorSpec.make("ex_asym", p=3, q=2),
    GeneratorSpec.make("ex_sym", p=3, q=2, n=3),
    GeneratorSpec.make("ex_seq", n=3),
    GeneratorSpec.make("ex_collusion", n=3, k=2, alpha=Fraction(3, 2)),
    GeneratorSpec.make("random_explicit", n=3, items=5, max_weight=8, seed=4),
    GeneratorSpec.make("random_symmetric", n=3, copies=2, seed=4),
]


class TestRationalStrings:
    def test_parse_integer_and_fraction_forms(self):
        assert parse_rational("3") == 3
        assert parse_rational("-2") == -2
        assert parse_rational("3/2") == Fraction(3, 2)
        assert parse_rational(5) == 5

    def test_zero_denominator_rejected(self):
        with pytest.raises(InputError):
            parse_rational("3/0")

    def test_floats_and_decimals_rejected(self):
        # Digits of other scripts too: "１" would parse as 1, "٣/٢" as 3/2.
        for bad in ("1.5", 1.5, "1e3", True, None, [1], "１", "٣/٢"):
            with pytest.raises(InputError):
                parse_rational(bad)

    def test_serialization_is_exact(self):
        for value in (Fraction(3, 2), Fraction(-7, 3), Fraction(4)):
            assert parse_rational(rational_str(value)) == value

    def test_decimal_rendering_is_presentation_only(self):
        assert decimal_str(Fraction(5, 2)) == "2.500000"

    def test_decimal_rendering_past_float_range_is_exact(self):
        # In range, the float's own digits stay; past it, exact digits
        # rounded half to even.
        assert decimal_str(Fraction(10**300)) == f"{1e300:.6f}"
        huge = 10**400
        assert decimal_str(huge + Fraction(1, 3)) == f"{huge}.333333"
        assert decimal_str(-huge - Fraction(5, 10**7)) == f"-{huge}.000000"
        assert decimal_str(huge + Fraction(15, 10**7)) == f"{huge}.000002"


@pytest.mark.parametrize("spec", ROUND_TRIP_SPECS, ids=str)
class TestInstanceRoundTrip:
    def test_parse_of_serialize_is_identity(self, spec):
        original = generate(spec)
        doc = instance_to_document(original, meta={"family": spec.family})
        text = dumps_document(doc)
        parsed, meta = document_to_instance(loads_document(text))
        assert parsed == original
        assert parsed.symmetric == original.symmetric
        assert meta == {"family": spec.family}

    def test_dump_is_deterministic(self, spec):
        original = generate(spec)
        doc = instance_to_document(original)
        assert dumps_document(doc) == dumps_document(
            instance_to_document(generate(spec)))


class TestProfileRoundTrip:
    def test_round_trip(self):
        spec = GeneratorSpec.make("ex_asym", p=3, q=2)
        game = generate(spec)
        for profile in reference_profiles(spec).values():
            doc = profile_to_document(profile)
            assert document_to_profile(loads_document(dumps_document(doc)),
                                       game) == profile

    def test_missing_player_key_rejected(self):
        game = generate(GeneratorSpec.make("ex_trivial"))
        with pytest.raises(InputError):
            document_to_profile({"1": ["1"]}, game)

    def test_unknown_item_rejected(self):
        game = generate(GeneratorSpec.make("ex_trivial"))
        with pytest.raises(InputError):
            document_to_profile({"1": ["9"], "2": []}, game)


class TestStrictParsing:
    def test_unknown_kind_rejected(self):
        doc = {"items": [{"id": "a", "weight": "1"}],
               "players": [{"kind": "mystery"}]}
        with pytest.raises(InputError):
            document_to_instance(doc)

    def test_negative_weight_rejected(self):
        doc = {"items": [{"id": "a", "weight": "-1"}],
               "players": [{"kind": "explicit", "maximal_sets": [["a"]]}]}
        with pytest.raises(InputError):
            document_to_instance(doc)

    def test_shared_symmetric_needs_base_section(self):
        doc = {"items": [{"id": "a", "weight": "1"}],
               "players": [{"kind": "shared_symmetric", "copies": 1}]}
        with pytest.raises(InputError):
            document_to_instance(doc)

    def test_base_errors_name_the_base_section(self):
        doc = {"items": [{"id": "a", "weight": "1"}],
               "symmetric_base": {"kind": "explicit", "maximal_sets": "a"},
               "players": [{"kind": "shared_symmetric", "copies": 1}]}
        with pytest.raises(InputError, match="^symmetric_base: "):
            document_to_instance(doc)

    def test_dominated_sets_are_not_written_back(self):
        doc = {"items": [{"id": "a", "weight": "1"}, {"id": "b", "weight": "1"}],
               "players": [{"kind": "explicit",
                            "maximal_sets": [["a"], ["a", "b"]]}]}
        game, _ = document_to_instance(doc)
        written = instance_to_document(game)
        assert written["players"][0]["maximal_sets"] == [["a", "b"]]

    def test_malformed_json_rejected(self):
        with pytest.raises(InputError):
            loads_document("{not json")

    def test_float_weight_rejected(self):
        doc = {"items": [{"id": "a", "weight": 1.25}],
               "players": [{"kind": "explicit", "maximal_sets": [["a"]]}]}
        with pytest.raises(InputError):
            document_to_instance(doc)


JOB_TABLES = {
    "single_machine": {"kind": "single_machine"},
    "unrelated_machines": {"kind": "unrelated_machines", "machines": ["m1"],
                           "processing": {"m1": {"a": "1"}}},
}


@pytest.mark.parametrize("kind", sorted(JOB_TABLES))
@pytest.mark.parametrize("jobs, message", [
    (["a"], "player 1: jobs must be an object"),
    ({"a": "0-2"}, "player 1: job 'a' must be an object"),
    ({"a": {"processing": "1", "deadline": 1.5}},
     "player 1.a.deadline: expected an integer or 'p/q' string, got 1.5"),
], ids=["jobs", "window", "deadline"])
def test_job_window_errors_name_their_field(kind, jobs, message):
    # Both kinds read their jobs through one parser, so one message each.
    doc = {"items": [{"id": "a", "weight": "1"}],
           "players": [{**JOB_TABLES[kind], "jobs": jobs}]}
    with pytest.raises(InputError) as caught:
        document_to_instance(doc)
    assert str(caught.value) == message


def test_a_user_defined_system_does_not_serialize():
    class Pair(FeasibilitySystem):
        def universe(self):
            return frozenset("ab")

        def is_member(self, items, budget=None):
            return frozenset(items) <= self.universe()

    game = Instance(items=(Item("a", 1), Item("b", 1)), players=(Pair(),))
    with pytest.raises(InputError) as caught:
        instance_to_document(game)
    assert str(caught.value) == "cannot serialize feasibility system Pair"


def test_no_bound_is_null():
    assert bound_to_document(None) is None
