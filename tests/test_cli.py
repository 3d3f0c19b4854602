"""Command-line surface: exit codes, output formats, determinism."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from spgames import IdenticalMachinesSystem
from spgames.cli import _build_parser, main
from spgames.factory import FAMILIES, PARAMETERS
from spgames.report import paper_suite_rows
from spgames.serialize import (document_to_instance, dumps_document,
                               instance_to_document, loads_document)


def run_cli(args, capsys) -> tuple[int, str]:
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out


@pytest.fixture()
def trivial_files(tmp_path, capsys):
    code, _ = run_cli(["generate", "ex_trivial", "--out", str(tmp_path)], capsys)
    assert code == 0
    return {
        "instance": str(tmp_path / "instance.json"),
        "opt": str(tmp_path / "profile_opt.json"),
        "bad": str(tmp_path / "profile_bad_equilibrium.json"),
    }


class TestGenerate:
    def test_writes_instance_and_reference_profiles(self, trivial_files, tmp_path):
        doc = json.loads((tmp_path / "instance.json").read_text())
        assert len(doc["items"]) == 2
        assert {p["kind"] for p in doc["players"]} == {"explicit"}

    def test_asym_has_five_items(self, capsys):
        code, out = run_cli(["generate", "ex_asym", "--p", "3", "--q", "2"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["instance"]["items"]) == 5

    def test_seeded_generation_is_byte_identical(self, capsys):
        args = ["generate", "random_explicit", "--n", "2", "--items", "4",
                "--max-weight", "8", "--seed", "7"]
        _, first = run_cli(args, capsys)
        _, second = run_cli(args, capsys)
        assert first == second
        assert first.endswith("\n")

    def test_families_and_flags_come_from_the_factory(self, capsys):
        with pytest.raises(SystemExit):
            main(["generate", "--help"])
        text = capsys.readouterr().out
        assert "{" + ",".join(FAMILIES) + "}" in text
        for name in PARAMETERS:
            assert f"--{name.replace('_', '-')} {name.upper()}" in text

    def test_bad_parameters_exit_two(self, capsys):
        code, _ = run_cli(["generate", "ex_asym", "--p", "1", "--q", "2"], capsys)
        assert code == 2

    @pytest.mark.parametrize("extra", [["--k", "3"], ["--k", "3", "--seed", "9"]])
    def test_parameters_the_family_does_not_read_exit_two(self, tmp_path,
                                                          capsys, extra):
        code, out = run_cli(["generate", "ex_seq", "--n", "1", *extra,
                             "--out", str(tmp_path)], capsys)
        assert code == 2 and out == ""
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("n", ["\u0663", "1_0", "3.0", ""])
    def test_parameters_in_other_digits_exit_two(self, capsys, n):
        code, out = run_cli(["generate", "ex_seq", "--n", n], capsys)
        assert code == 2 and out == ""

    def test_byte_identical_across_processes(self, tmp_path):
        args = [sys.executable, "-m", "spgames", "generate", "random_explicit",
                "--n", "2", "--items", "4", "--max-weight", "8", "--seed", "7"]
        first = subprocess.run(args, capture_output=True)
        second = subprocess.run(args, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout

    # One spec per family, `spg generate` stdout with no --out.
    DIGESTS = {
        "ex_trivial":
            "012ce8a4a3eff03de8005aac1f29571b778294f35eb3a76c013503e88f0ad8f2",
        "ex_asym --p 3 --q 2":
            "7fce6f2b15bdf60169a915b3e31643d7f86cd45de38b19beb90f7267aee4922e",
        "ex_sym --p 2 --q 1 --n 4":
            "5085977fc422141b400d476a35d56b0406dba1fdf58c54d570b531a2c1ca81e3",
        "ex_seq --n 4":
            "a9fff2b568c00d243285b8564e9806d05de90f56dbd9ade99f6652b3eb4ff443",
        "ex_collusion --n 4 --k 2 --alpha 3/2":
            "54709e032308a72852c212154e688900e811415c6a78f9dddd49e7cdc84a9a8e",
        "random_explicit --n 3 --items 6 --max-weight 8 --seed 5":
            "f61dd520c0f508f17d7b40afbc750f16eefbd8b261210f7f11060bd67e04bc76",
        "random_symmetric --n 3 --copies 3 --seed 2":
            "a7bd19f09ae7c91d7bbe6e7c14943998f2ff7c2495dd84eb34a8836e3095e5fd",
    }

    @pytest.mark.parametrize("args, digest", DIGESTS.items(), ids=list(DIGESTS))
    def test_generate_bytes_are_pinned(self, capsys, args, digest):
        code, out = run_cli(["generate"] + args.split(), capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_pinned_bytes_do_not_depend_on_the_hash_seed(self):
        commands = [["generate"] + args.split() for args in self.DIGESTS]
        for seed in ("1", "2"):
            assert digests_under_hash_seed(seed, commands) == list(
                self.DIGESTS.values())


def digests_under_hash_seed(seed: str, commands: list[list[str]]) -> list[str]:
    """The sha256 of each command's stdout, all run by `main` in one fresh
    interpreter under `PYTHONHASHSEED=seed`."""
    script = ("import contextlib, hashlib, io, json, sys\n"
              "from spgames.cli import main\n"
              "for args in json.loads(sys.argv[1]):\n"
              "    out = io.StringIO()\n"
              "    with contextlib.redirect_stdout(out):\n"
              "        main(args)\n"
              "    print(hashlib.sha256(out.getvalue().encode()).hexdigest())\n")
    run = subprocess.run([sys.executable, "-c", script, json.dumps(commands)],
                         capture_output=True, text=True, check=True,
                         env={**os.environ, "PYTHONHASHSEED": seed})
    return run.stdout.split()


def test_command_bytes_do_not_depend_on_the_hash_seed(tmp_path, capsys):
    """Every search command on generated explicit, shared and machine
    games, and the paper report, print the same bytes under two hash
    seeds."""
    commands = [["report", "--suite", "paper"]]
    for family in ("ex_collusion --n 3 --k 2 --alpha 1",
                   "random_symmetric --n 3 --copies 3 --seed 2", "ex_seq --n 3"):
        out = tmp_path / family.split()[0]
        code, _ = run_cli(["generate"] + family.split() + ["--out", str(out)],
                          capsys)
        assert code == 0
        commands += [run.split() + ["--instance", str(out / "instance.json")]
                     for run in ("nash", "collusion --k 2", "spe --order 3,1,2",
                                 "poa --concept spe")]
    first, second = (digests_under_hash_seed(seed, commands)
                     for seed in ("1", "2"))
    assert len(first) == len(commands) and first == second


class TestVerify:
    def test_stable_profile_exits_zero(self, trivial_files, capsys):
        code, out = run_cli(["verify", "--instance", trivial_files["instance"],
                             "--profile", trivial_files["bad"],
                             "--concept", "nash", "--alpha", "1"], capsys)
        assert code == 0
        assert json.loads(out)["verdict"] is True

    def test_collusion_refutation_exits_one_with_witness(self, trivial_files,
                                                         capsys):
        code, out = run_cli(["verify", "--instance", trivial_files["instance"],
                             "--profile", trivial_files["bad"],
                             "--concept", "collusion", "--k", "2",
                             "--alpha", "1"], capsys)
        assert code == 1
        doc = json.loads(out)
        assert doc["verdict"] is False
        assert doc["witness"]["players"] == [1, 2]

    def test_spe_requires_order(self, trivial_files, capsys):
        code, _ = run_cli(["verify", "--instance", trivial_files["instance"],
                           "--profile", trivial_files["bad"],
                           "--concept", "spe", "--alpha", "1"], capsys)
        assert code == 2

    def test_spe_verdict_depends_on_order(self, trivial_files, capsys):
        base = ["verify", "--instance", trivial_files["instance"],
                "--profile", trivial_files["bad"], "--concept", "spe",
                "--alpha", "1"]
        assert run_cli(base + ["--order", "1,2"], capsys)[0] == 0
        assert run_cli(base + ["--order", "2,1"], capsys)[0] == 1

    def test_malformed_alpha_exits_two(self, trivial_files, capsys):
        code, _ = run_cli(["verify", "--instance", trivial_files["instance"],
                           "--profile", trivial_files["bad"],
                           "--concept", "nash", "--alpha", "3/0"], capsys)
        assert code == 2


class TestQueries:
    def test_opt(self, trivial_files, capsys):
        code, out = run_cli(["opt", "--instance", trivial_files["instance"]],
                            capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["welfare"] == "2"
        assert doc["profile"] == {"1": ["1"], "2": ["2"]}

    def test_nash_enumeration(self, trivial_files, capsys):
        code, out = run_cli(["nash", "--instance", trivial_files["instance"],
                             "--alpha", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 2
        assert doc["equilibria"][0]["profile"] == {"1": ["1"], "2": ["2"]}

    def test_spe_outcomes(self, trivial_files, capsys):
        code, out = run_cli(["spe", "--instance", trivial_files["instance"],
                             "--order", "2,1", "--alpha", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["outcomes"][0]["welfare"] == "2"

    def test_collusion_enumeration(self, trivial_files, capsys):
        code, out = run_cli(["collusion", "--instance",
                             trivial_files["instance"], "--k", "2",
                             "--alpha", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["count"] == 1
        assert doc["equilibria"][0]["welfare"] == "2"

    def test_collusion_k_out_of_range_exits_two_before_enumerating(
            self, tmp_path, capsys):
        # Enumerating this game's Nash profiles needs far more than 1,000
        # nodes, so a late check would exit 3.
        code, _ = run_cli(["generate", "ex_collusion", "--n", "4", "--k", "2",
                           "--alpha", "1", "--out", str(tmp_path)], capsys)
        assert code == 0
        code, out = run_cli(["collusion", "--instance",
                             str(tmp_path / "instance.json"), "--k", "0",
                             "--budget", "1000"], capsys)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("command, digest", [
        (["nash"],
         "93601d67f10ad61161208be16724264854100438550d51629b1673c8f481a48e"),
        (["spe", "--order", "3,1,2"],
         "ffda946e22390bd8ef48be8f05f48901d14b760e7371ec77e74d63a436a0b05c"),
        (["collusion", "--k", "2"],
         "3909f80b26d9fc330021dbdab90fbf1f6c0a3174c85dc2979283a8ed00fb8655"),
        (["poa", "--concept", "spe"],
         "02d0a4e672b29dc4de4a71849f31b02f7fad30353f464ed68cdfe1780f1fb85c"),
    ])
    def test_listing_bytes_are_pinned(self, tmp_path, capsys, command, digest):
        code, _ = run_cli(["generate", "ex_collusion", "--n", "3", "--k", "2",
                           "--alpha", "1", "--out", str(tmp_path)], capsys)
        assert code == 0
        code, out = run_cli(command + ["--instance",
                                       str(tmp_path / "instance.json")], capsys)
        assert code == 0
        assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest

    def test_poa_ratio_as_rational_string(self, trivial_files, capsys):
        code, out = run_cli(["poa", "--instance", trivial_files["instance"],
                             "--concept", "nash", "--alpha", "1"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == "2"
        assert doc["ratio_decimal"] == "2.000000"
        assert doc["bound"] == "2"
        assert doc["bound_satisfied"] is True

    def test_budget_exhaustion_exits_three(self, trivial_files, capsys):
        code, out = run_cli(["poa", "--instance", trivial_files["instance"],
                             "--concept", "nash", "--alpha", "1",
                             "--budget", "4"], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "budget-exceeded"

    def test_one_budget_caps_a_whole_verification(self, tmp_path, capsys):
        # The reply searches of verify_nash here need 132 nodes together.
        code, _ = run_cli(["generate", "ex_sym", "--p", "2", "--q", "1",
                           "--n", "4", "--out", str(tmp_path)], capsys)
        assert code == 0
        code, out = run_cli(["verify", "--instance",
                             str(tmp_path / "instance.json"), "--profile",
                             str(tmp_path / "profile_bad_equilibrium.json"),
                             "--concept", "nash", "--alpha", "2",
                             "--budget", "34"], capsys)
        assert code == 3
        assert json.loads(out)["error"] == "budget-exceeded"

    def test_budget_env_variable(self, trivial_files, capsys, monkeypatch):
        monkeypatch.setenv("SPG_BUDGET", "4")
        code, _ = run_cli(["poa", "--instance", trivial_files["instance"],
                           "--concept", "nash", "--alpha", "1"], capsys)
        assert code == 3

    @pytest.mark.parametrize("args, env, code", [
        (["poa", "--concept", "collusion", "--k", "2"], None, 0),
        (["poa", "--concept", "collusion"], None, 2),
        (["verify", "--concept", "collusion"], None, 2),
        (["spe", "--order", "1,x"], None, 2),
        (["spe", "--order", "1,1"], None, 2),
        (["opt", "--budget", "0"], None, 2),
        (["opt"], "0", 2),
        (["opt"], "x", 2),
        # Integers are read as rationals are: ASCII digits, no underscores.
        (["spe", "--order", "\u0661,2"], None, 2),
        (["collusion", "--k", "\u0662"], None, 2),
        (["opt", "--budget", "\u0661\u0660\u0660\u0660"], None, 2),
        (["opt", "--budget", "1_000"], None, 2),
        (["opt"], "1_000", 2),
        (["opt", "--budget", " +1000 "], None, 0),
        (["spe", "--order", "2, 1"], None, 0),
    ], ids=["poa-collusion", "poa-collusion-without-k",
            "verify-collusion-without-k", "order-not-integers",
            "order-not-a-permutation", "budget-zero", "env-budget-zero",
            "env-budget-not-integer", "order-arabic-indic-digit",
            "k-arabic-indic-digit", "budget-arabic-indic-digits",
            "budget-underscore", "env-budget-underscore",
            "budget-sign-and-spaces", "order-spaces"])
    def test_exit_codes_of_argument_checks(self, trivial_files, capsys,
                                           monkeypatch, args, env, code):
        if env is not None:
            monkeypatch.setenv("SPG_BUDGET", env)
        if args[0] == "verify":
            args = args + ["--profile", trivial_files["bad"]]
        status, out = run_cli(
            args + ["--instance", trivial_files["instance"]], capsys)
        assert status == code
        assert (out == "") == (code == 2)

    @pytest.mark.parametrize("error", [RecursionError, MemoryError])
    def test_exhausted_resources_exit_three(self, trivial_files, capsys,
                                            monkeypatch, error):
        def exhausted(args):
            raise error("too deep")

        monkeypatch.setattr("spgames.cli._cmd_opt", exhausted)
        code, out = run_cli(["opt", "--instance", trivial_files["instance"]], capsys)
        assert code == 3
        doc = json.loads(out)
        assert doc["error"] == "resources-exhausted"
        assert doc["detail"] == f"{error.__name__}: too deep"

    def test_deeply_nested_json_exits_two(self, tmp_path, capsys):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000)
        code, out = run_cli(["opt", "--instance", str(nested)], capsys)
        assert code == 2 and out == ""

    def test_missing_file_exits_two(self, capsys):
        code, _ = run_cli(["opt", "--instance", "/nonexistent.json"], capsys)
        assert code == 2

    def test_instance_that_is_not_utf8_exits_two(self, tmp_path, capsys):
        binary = tmp_path / "instance.json"
        binary.write_bytes(b'{"items": "\xff"}')
        code, out = run_cli(["opt", "--instance", str(binary)], capsys)
        assert code == 2 and out == ""

    def test_output_inside_a_file_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out = run_cli(["generate", "ex_trivial",
                             "--out", str(blocker / "sub")], capsys)
        assert code == 2 and out == ""

    @pytest.mark.parametrize("maximal_sets", [[5], ["ab"]])
    def test_maximal_sets_that_are_not_lists_exit_two(self, tmp_path, capsys,
                                                      maximal_sets):
        # Exit 1 would say "refuted"; a string must not pass as the set
        # of its characters.
        document = tmp_path / "instance.json"
        document.write_text(json.dumps({
            "items": [{"id": "a", "weight": "1"}, {"id": "b", "weight": "1"}],
            "players": [{"kind": "explicit", "maximal_sets": maximal_sets}]}))
        code, out = run_cli(["opt", "--instance", str(document)], capsys)
        assert code == 2 and out == ""


# Most digits the interpreter converts between an int and a string, or 0
# for no limit.  Python 3.10 before 3.10.7 has no limit and no getter.
DIGIT_LIMIT = getattr(sys, "get_int_max_str_digits", lambda: 0)()
needs_digit_limit = pytest.mark.skipif(
    not DIGIT_LIMIT, reason="the interpreter has no digit limit")
POWER_400 = "1" + "0" * 400


def two_item_game(path, weight) -> str:
    """Items a (weight `weight`) and b (weight 1); player 1 takes {a} or
    {b}, player 2 takes {b}."""
    path.write_text(json.dumps({
        "items": [{"id": "a", "weight": weight}, {"id": "b", "weight": "1"}],
        "players": [{"kind": "explicit", "maximal_sets": [["a"], ["b"]]},
                    {"kind": "explicit", "maximal_sets": [["b"]]}]}))
    return str(path)


class TestHugeRationals:
    """Exit 1 means refuted, so a number past what the interpreter
    converts is an input error, not a traceback."""

    @needs_digit_limit
    @pytest.mark.parametrize("as_number", [False, True])
    def test_weight_past_the_digit_limit_exits_two(self, tmp_path, capsys,
                                                   as_number):
        digits = "1" + "0" * DIGIT_LIMIT
        game = two_item_game(tmp_path / "game.json", digits)
        if as_number:
            text = Path(game).read_text()
            Path(game).write_text(text.replace(f'"{digits}"', digits))
        code, out = run_cli(["opt", "--instance", game], capsys)
        assert code == 2 and out == ""

    @needs_digit_limit
    def test_alpha_past_the_digit_limit_exits_two(self, trivial_files, capsys):
        code, out = run_cli(["poa", "--instance", trivial_files["instance"],
                             "--concept", "nash",
                             "--alpha", "1" + "0" * DIGIT_LIMIT], capsys)
        assert code == 2 and out == ""

    @needs_digit_limit
    def test_budget_past_the_digit_limit_exits_two(self, trivial_files, capsys):
        digits = "1" + "0" * max(5000, DIGIT_LIMIT)
        code = main(["opt", "--instance", trivial_files["instance"],
                     "--budget", digits])
        captured = capsys.readouterr()
        assert code == 2 and captured.out == ""
        assert captured.err.startswith("error: --budget: ")

    @pytest.mark.skipif(not 0 < DIGIT_LIMIT < 4810,
                        reason="the bound prints within the digit limit")
    def test_bound_past_the_digit_limit_exits_two(self, tmp_path, capsys):
        # At alpha 10^400 the ends of the SPE bound enclosure have up to
        # 4,810 digits.
        code, _ = run_cli(["generate", "random_symmetric", "--n", "2",
                           "--copies", "1", "--seed", "1",
                           "--out", str(tmp_path)], capsys)
        assert code == 0
        code, out = run_cli(["poa", "--instance", str(tmp_path / "instance.json"),
                             "--concept", "spe", "--alpha", POWER_400], capsys)
        assert code == 2 and out == ""

    def test_ratio_past_float_range_prints_exactly(self, tmp_path, capsys):
        # Player 1 taking b is a 10^400-approximate equilibrium, so the
        # ratio is 10^400 + 1, which no float holds.
        game = two_item_game(tmp_path / "game.json", POWER_400)
        code, out = run_cli(["poa", "--instance", game, "--concept", "nash",
                             "--alpha", POWER_400], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["ratio"] == POWER_400[:-1] + "1"
        assert doc["ratio_decimal"] == POWER_400[:-1] + "1.000000"


# Two unit jobs due at 1 on two identical machines, each player's own.
IDENTICAL = {
    "items": [{"id": "a", "weight": "1"}, {"id": "b", "weight": "2"}],
    "players": [{"kind": "identical_machines", "copies": 2, "jobs": {
        "a": {"release": "0", "processing": "1", "deadline": "1"},
        "b": {"release": "0", "processing": "1", "deadline": "1"}}}] * 2,
}


def with_copies(copies) -> dict:
    player = dict(IDENTICAL["players"][0], copies=copies)
    return dict(IDENTICAL, players=[player] * 2)


class TestIdenticalMachinesDocuments:
    def test_round_trip_to_equal_bytes(self):
        text = dumps_document(IDENTICAL)
        instance, _ = document_to_instance(loads_document(text))
        assert isinstance(instance.players[0], IdenticalMachinesSystem)
        assert dumps_document(instance_to_document(instance)) == text

    def test_nash_price_of_anarchy(self, tmp_path, capsys):
        path = tmp_path / "instance.json"
        path.write_text(dumps_document(IDENTICAL))
        code, out = run_cli(["poa", "--instance", str(path),
                             "--concept", "nash"], capsys)
        assert code == 0
        assert json.loads(out)["ratio"] == "1"

    @pytest.mark.parametrize("copies, message", [
        (True, "must be an integer, got True"),
        (2.5, "must be an integer, got 2.5"),
        ("3", "must be an integer, got '3'"),
        (0, "must be >= 1, got 0"),
    ], ids=["bool", "float", "string", "zero"])
    def test_copies_that_are_not_positive_integers_exit_two(
            self, tmp_path, capsys, copies, message):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(with_copies(copies)))
        assert main(["poa", "--instance", str(path), "--concept", "nash"]) == 2
        assert capsys.readouterr() == ("", f"error: player 1: copies {message}\n")


def unrelated(**fields) -> dict:
    """An instance of one unrelated-machines player over item a, with
    `fields` replacing fields of its descriptor."""
    player = {"kind": "unrelated_machines", "machines": ["m"],
              "processing": {"m": {"a": "1"}},
              "jobs": {"a": {"release": "0", "deadline": "1"}}}
    return {"items": [{"id": "a", "weight": "1"}],
            "players": [dict(player, **fields)]}


EXPLICIT = {"items": [{"id": "a", "weight": "1"}],
            "players": [{"kind": "explicit", "maximal_sets": [["a"]]}]}


class TestDocumentErrors:
    @pytest.mark.parametrize("instance, profile, message", [
        (dict(EXPLICIT, players=[5]), None,
         "player 1: descriptor must be an object"),
        (unrelated(machines=[]), None,
         "player 1: machines must be a nonempty list"),
        ({"items": EXPLICIT["items"],
          "symmetric_base": EXPLICIT["players"][0],
          "players": [{"kind": "shared_symmetric", "copies": "2"}]}, None,
         "player 1: copies must be an integer, got '2'"),
        (unrelated(processing=[]), None,
         "player 1: processing must be an object"),
        (unrelated(processing={"m": 5}), None,
         "player 1: processing.m must be an object"),
        ([EXPLICIT], None, "instance document must be a JSON object"),
        (dict(EXPLICIT, items={}), None,
         "instance document needs an 'items' array"),
        (dict(EXPLICIT, items=[5]), None, "malformed item entry: 5"),
        (dict(EXPLICIT, players=[]), None,
         "instance document needs a nonempty 'players' array"),
        (dict(EXPLICIT, meta="x"), None, "'meta' must be an object"),
        # Only a missing key means no meta: an empty or false one is wrong.
        *((dict(EXPLICIT, meta=meta), None, "'meta' must be an object")
          for meta in ([], 0, "", False, None)),
        (EXPLICIT, [["a"]], "profile document must be a JSON object"),
        (EXPLICIT, {"1": "a"}, "player 1: item list expected"),
        (unrelated(processing={"x": {"a": "1"}}), None,
         "processing entry for unknown machine 'x'"),
        (unrelated(processing={"m": {"b": "1"}}), None,
         "processing entry for unknown job 'b'"),
        (unrelated(processing={"m": {"a": "0"}}), None,
         "processing must be > 0, got 0"),
        (dict(EXPLICIT, players=[{"kind": "single_machine", "jobs": {
            "a": {"processing": "0", "deadline": "1"}}}]), None,
         "processing must be > 0, got 0"),
    ], ids=["descriptor-not-object", "empty-machines", "shared-copies",
            "processing-not-object", "machine-processing-not-object",
            "document-not-object", "items-not-list", "malformed-item",
            "empty-players", "meta-not-object", "meta-empty-list",
            "meta-zero", "meta-empty-string", "meta-false", "meta-null",
            "profile-not-object", "player-entry-not-list",
            "processing-unknown-machine", "processing-unknown-job",
            "processing-zero", "job-processing-zero"])
    def test_reader_input_errors_exit_two(self, tmp_path, capsys, instance,
                                          profile, message):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(instance))
        args = ["opt", "--instance", str(path)]
        if profile is not None:
            profile_path = tmp_path / "profile.json"
            profile_path.write_text(json.dumps(profile))
            args = ["verify", "--instance", str(path), "--profile",
                    str(profile_path), "--concept", "nash"]
        assert main(args) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")


class TestReport:
    def test_unknown_suite_exits_two(self, capsys):
        code, out = run_cli(["report", "--suite", "extended"], capsys)
        assert code == 2 and out == ""

    def test_rows_do_not_depend_on_the_budget(self):
        # The collusion rows choose their method by the default budget,
        # so a caller's budget only limits the searches.
        rows = paper_suite_rows()
        assert paper_suite_rows(10**5) == rows
        assert paper_suite_rows(2 * 10**11) == rows

    def test_output_that_is_a_file_exits_two(self, tmp_path, capsys):
        blocker = tmp_path / "file"
        blocker.write_text("")
        code, out = run_cli(["report", "--suite", "paper",
                             "--out", str(blocker)], capsys)
        assert code == 2 and out == ""

    def test_paper_suite_writes_tables_and_passes(self, tmp_path, capsys):
        code, out = run_cli(["report", "--suite", "paper",
                             "--out", str(tmp_path)], capsys)
        assert code == 0
        tsv = (tmp_path / "report.tsv").read_text()
        assert tsv.startswith("family\t")
        rows = json.loads((tmp_path / "report.json").read_text())
        assert all(row["satisfied"] for row in rows)
        by_key = {(r["family"], r["params"], r["concept"]): r for r in rows}
        assert by_key[("ex_trivial", "-", "nash")]["measured"] == "2"
        assert by_key[("ex_seq", "n=5", "spe-greedy")]["measured"] == "25/18"
        assert by_key[("ex_collusion", "n=3,k=2,alpha=1",
                       "collusion")]["measured"] == "3/2"
        digests = {name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
                   for name in ("report.tsv", "report.json")}
        assert digests == {
            "report.tsv": "965efe45db3e7d4d3e4d0ba27b0b03fc26a3a9a72c0e5c897719053bce60e3b8",
            "report.json": "0b523d967dbc6f49f68bc6b528851346a01b028bd3c662aa3d365586f5351abe",
        }


COMMANDS = ("generate", "verify", "opt", "nash", "spe", "collusion", "poa",
            "report")


def full_tree(argv) -> int:
    """Parse `argv` with every subcommand built, then run its handler."""
    args = _build_parser().parse_args(argv)
    return args.func(args)


def outcome(run, capsys) -> tuple:
    """The exit status, standard output and standard error of `run()`."""
    try:
        code = run()
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParser:
    """`main` builds only the subcommand it runs; every help text, usage
    line and error must read as the full tree's."""

    @pytest.mark.parametrize("argv", [
        [], ["-h"], ["-h", "opt"], ["frobnicate"],
        *([name, "-h"] for name in COMMANDS),
        ["generate"], ["verify", "--instance", "INSTANCE", "--concept", "nash"],
        ["opt"], ["nash"], ["spe", "--instance", "INSTANCE"],
        ["collusion", "--instance", "INSTANCE"], ["poa", "--instance", "INSTANCE"],
        ["opt", "--instance", "INSTANCE", "--frobnicate"],
        ["report", "--suite", "paper", "extra"],
        ["opt", "--inst", "INSTANCE"],
    ], ids=lambda argv: " ".join(argv) or "no-arguments")
    def test_output_matches_the_full_tree(self, trivial_files, capsys,
                                          monkeypatch, argv):
        argv = [trivial_files["instance"] if arg == "INSTANCE" else arg
                for arg in argv]
        expected = outcome(lambda: full_tree(argv), capsys)
        assert outcome(lambda: main(argv), capsys) == expected
        monkeypatch.setattr(sys, "argv", ["spg", *argv])
        assert outcome(main, capsys) == expected
