"""Generator families: construction invariants and reference profiles."""

from fractions import Fraction

import pytest

from spgames import (GeneratorSpec, InputError, compute_opt, generate,
                     random_explicit, random_symmetric, reference_profiles,
                     validate_downward_closed, validate_profile,
                     verify_collusion, verify_nash, welfare)

PAPER_SPECS = [
    GeneratorSpec.make("ex_trivial"),
    GeneratorSpec.make("ex_asym", p=1, q=1),
    GeneratorSpec.make("ex_asym", p=3, q=2),
    GeneratorSpec.make("ex_sym", p=3, q=2, n=3),
    GeneratorSpec.make("ex_sym", p=2, q=1, n=4),
    GeneratorSpec.make("ex_seq", n=3),
    GeneratorSpec.make("ex_collusion", n=3, k=2, alpha=Fraction(1)),
    GeneratorSpec.make("ex_collusion", n=4, k=3, alpha=Fraction(1)),
    GeneratorSpec.make("ex_collusion", n=3, k=2, alpha=Fraction(3, 2)),
]


def family_alpha(spec: GeneratorSpec) -> Fraction:
    params = spec.param_map
    if spec.family in ("ex_asym", "ex_sym"):
        return Fraction(params["p"], params["q"])
    if spec.family == "ex_collusion":
        return Fraction(params["alpha"])
    return Fraction(1)


@pytest.mark.parametrize("spec", PAPER_SPECS, ids=str)
class TestPaperFamilies:
    def test_systems_are_downward_closed(self, spec):
        game = generate(spec)
        for system in game.players:
            assert validate_downward_closed(system)

    def test_reference_profiles_are_valid(self, spec):
        game = generate(spec)
        for profile in reference_profiles(spec).values():
            assert validate_profile(game, profile) == []

    def test_reference_optimum_is_optimal(self, spec):
        game = generate(spec)
        opt = reference_profiles(spec)["opt"]
        _, best = compute_opt(game)
        assert welfare(game, opt) == best

    def test_bad_profile_passes_its_concept_verifier(self, spec):
        game = generate(spec)
        bad = reference_profiles(spec)["bad_equilibrium"]
        alpha = family_alpha(spec)
        if spec.family == "ex_collusion":
            assert verify_collusion(game, bad, spec.param_map["k"], alpha).verdict
        else:
            assert verify_nash(game, bad, alpha).verdict


class TestConstructionFacts:
    def test_asym_three_two_shape(self):
        game = generate(GeneratorSpec.make("ex_asym", p=3, q=2))
        assert game.n == 3 and len(game.item_ids) == 5
        refs = reference_profiles(GeneratorSpec.make("ex_asym", p=3, q=2))
        assert welfare(game, refs["opt"]) == 5
        assert welfare(game, refs["bad_equilibrium"]) == 2

    def test_deadline_grid_shape(self):
        game = generate(GeneratorSpec.make("ex_seq", n=5))
        assert len(game.item_ids) == 25
        refs = reference_profiles(GeneratorSpec.make("ex_seq", n=5))
        assert welfare(game, refs["opt"]) == 25

    def test_collusion_construction_values(self):
        spec = GeneratorSpec.make("ex_collusion", n=3, k=2, alpha=Fraction(1))
        game = generate(spec)
        refs = reference_profiles(spec)
        assert welfare(game, refs["opt"]) == 9
        assert welfare(game, refs["bad_equilibrium"]) == 6

    def test_symmetric_flag_set_by_construction(self):
        assert generate(GeneratorSpec.make("ex_sym", p=3, q=2, n=3)).symmetric
        assert generate(GeneratorSpec.make("ex_seq", n=3)).symmetric
        assert not generate(GeneratorSpec.make("ex_trivial")).symmetric


class TestRandomFamilies:
    def test_same_seed_same_instance(self):
        a = random_explicit(n=2, items=4, max_weight=8, seed=7)
        b = random_explicit(n=2, items=4, max_weight=8, seed=7)
        assert a == b
        c = random_symmetric(n=3, copies=2, seed=9)
        d = random_symmetric(n=3, copies=2, seed=9)
        assert c == d

    def test_different_seeds_differ(self):
        a = random_explicit(n=2, items=4, max_weight=8, seed=1)
        b = random_explicit(n=2, items=4, max_weight=8, seed=2)
        assert a != b

    def test_random_instances_are_downward_closed(self):
        for seed in range(10):
            game = random_explicit(n=3, items=6, max_weight=8, seed=seed)
            for system in game.players:
                assert validate_downward_closed(system)
        for seed in range(6):
            game = random_symmetric(n=3, copies=2, seed=seed)
            for system in game.players:
                assert validate_downward_closed(system)

    def test_reference_profiles_unsupported(self):
        with pytest.raises(InputError):
            reference_profiles(GeneratorSpec.make(
                "random_explicit", n=2, items=4, max_weight=8, seed=7))


class TestSpecValidation:
    def test_unknown_family(self):
        with pytest.raises(InputError):
            GeneratorSpec.make("ex_unknown")

    def test_parameter_invariants(self):
        with pytest.raises(InputError):
            generate(GeneratorSpec.make("ex_asym", p=1, q=2))  # p >= q
        with pytest.raises(InputError):
            generate(GeneratorSpec.make("ex_collusion", n=3, k=4,
                                        alpha=Fraction(1)))
        with pytest.raises(InputError):
            generate(GeneratorSpec.make("ex_collusion", n=3, k=2,
                                        alpha=Fraction(1, 2)))
        with pytest.raises(InputError):
            generate(GeneratorSpec.make("ex_asym", p=3))  # q missing

    @pytest.mark.parametrize("family, params, unread", [
        ("ex_seq", {"n": 1, "k": 3, "seed": 9}, "'k', 'seed'"),
        ("ex_trivial", {"n": 2}, "'n'"),
        ("ex_sym", {"p": 2, "q": 1, "n": 3, "seed": 0}, "'seed'")], ids=str)
    def test_parameters_the_family_does_not_read(self, family, params, unread):
        # Recorded in the meta of `spg generate`, an unread parameter
        # would claim a game it did not shape.
        spec = GeneratorSpec.make(family, **params)
        for build in (generate, reference_profiles):
            with pytest.raises(InputError, match=unread):
                build(spec)

    @pytest.mark.parametrize("params", [
        {}, {"n": 3}, {"n": "x", "k": 2}, {"n": 0, "k": 2, "alpha": 1},
        {"n": 3, "k": 2, "alpha": "x"}, {"n": 3, "k": 4, "alpha": 1}], ids=str)
    def test_references_report_what_generate_reports(self, params):
        # ex_collusion reads alpha first, for its instance and its
        # references alike.
        spec = GeneratorSpec.make("ex_collusion", **params)
        with pytest.raises(InputError) as generated:
            generate(spec)
        with pytest.raises(InputError) as referenced:
            reference_profiles(spec)
        assert str(referenced.value) == str(generated.value)
