"""Command-line surface: exit codes, output formats, determinism."""

import hashlib
import json
import subprocess
import sys

import pytest

from spgames.cli import main


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

    def test_bad_parameters_exit_two(self, capsys):
        code, _ = run_cli(["generate", "ex_asym", "--p", "1", "--q", "2"], capsys)
        assert code == 2

    def test_byte_identical_across_processes(self, tmp_path):
        args = [sys.executable, "-m", "spgames", "generate", "random_explicit",
                "--n", "2", "--items", "4", "--max-weight", "8", "--seed", "7"]
        first = subprocess.run(args, capture_output=True)
        second = subprocess.run(args, capture_output=True)
        assert first.returncode == 0
        assert first.stdout == second.stdout


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


class TestReport:
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
