"""End-to-end tests of the command line front end.

Runs go through cli.main with small parameter sets; a single test
exercises the installed console script.
"""

import csv
import hashlib
import json
import re
import subprocess
import sys

import numpy as np
import pytest

from cvqc_lab import cli, protocol
from cvqc_lab.cli import (
    ConfigError,
    ExperimentConfig,
    ParseError,
    build_config,
    render_summary,
    render_table,
)


def parse_table(text: str):
    """Inverse of render_table over its own output."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ParseError("empty table")
    split = lambda ln: re.split(r" {2,}", ln.strip())
    columns = split(lines[0])
    rows = []
    for ln in lines[1:]:
        if set(ln) <= {"-", " "}:
            continue
        cells = split(ln)
        if len(cells) != len(columns):
            raise ParseError(f"table row width {len(cells)} != header width {len(columns)}")
        rows.append(dict(zip(columns, cells)))
    return columns, rows


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def run_cli(args, tmp_path, out_name, extra=()):
    out = tmp_path / out_name
    code = cli.main(args + ["--out", str(out)] + list(extra))
    return code, out


class TestConfigHandling:
    def test_unknown_key_rejected_and_nothing_written(self, tmp_path):
        code, out = run_cli(["jordan-demo", "--seed", "1", "--set", "nope=3"],
                            tmp_path, "x.csv")
        assert code == 2
        assert not out.exists()

    def test_missing_seed_rejected(self, tmp_path):
        code, out = run_cli(["jordan-demo"], tmp_path, "x.csv")
        assert code == 2
        assert not out.exists()

    def test_malformed_config_file(self, tmp_path):
        bad = tmp_path / "cfg.json"
        bad.write_text("{broken")
        code, out = run_cli(["jordan-demo", "--seed", "1", "--config", str(bad)],
                            tmp_path, "x.csv")
        assert code == 2
        assert not out.exists()

    def test_non_utf8_config_file(self, tmp_path, capsys):
        bad = tmp_path / "cfg.json"
        bad.write_bytes(b'{"pairs": "\xff"}')
        code, out = run_cli(["jordan-demo", "--seed", "1", "--config", str(bad)],
                            tmp_path, "x.csv")
        assert code == 2
        assert not out.exists()
        assert str(bad) in capsys.readouterr().err

    def test_config_file_values_apply(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairs": 3, "dim_max": 4}))
        code, out = run_cli(["jordan-demo", "--seed", "1", "--config", str(cfg)],
                            tmp_path, "j.csv")
        assert code == 0
        assert len(read_rows(out)) == 6  # two claims per pair

    def test_set_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairs": 3}))
        code, out = run_cli(["jordan-demo", "--seed", "1", "--config", str(cfg),
                             "--set", "pairs=2", "--set", "dim_max=4"],
                            tmp_path, "j.csv")
        assert code == 0
        assert len(read_rows(out)) == 4

    @pytest.mark.parametrize("seed", [True, 3.0, -1])
    def test_bad_config_file_seed(self, tmp_path, capsys, seed):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairs": 2, "dim_max": 4, "seed": seed}))
        code, out = run_cli(["jordan-demo", "--config", str(cfg)], tmp_path, "j.csv")
        assert code == 2
        assert not out.exists()
        assert "seed=" in capsys.readouterr().err

    def test_negative_seed_flag(self, tmp_path, capsys):
        code, out = run_cli(["jordan-demo", "--seed", "-1"], tmp_path, "j.csv")
        assert code == 2
        assert not out.exists()
        assert "seed=-1 below 0" in capsys.readouterr().err

    def test_seed_follows_the_integer_rule(self):
        for bad in (True, -1, 2.0, "3"):
            with pytest.raises(ConfigError, match="seed="):
                build_config("fs-attack", seed=bad)
        assert build_config("fs-attack", seed=np.int64(5)).seed == 5

    def test_config_file_may_carry_seed(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairs": 2, "dim_max": 4, "seed": 9}))
        code, out = run_cli(["jordan-demo", "--config", str(cfg)], tmp_path, "j.csv")
        assert code == 0

    def test_bad_value_types(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"pairs": "three"}))
        code, out = run_cli(["jordan-demo", "--seed", "1", "--config", str(cfg)],
                            tmp_path, "x.csv")
        assert code == 2
        code, out = run_cli(["jordan-demo", "--seed", "1", "--set", "pairs=x"],
                            tmp_path, "x.csv")
        assert code == 2

    def test_set_without_equals(self, tmp_path):
        code, out = run_cli(["jordan-demo", "--seed", "1", "--set", "pairs"],
                            tmp_path, "x.csv")
        assert code == 2

    def test_out_of_range_values(self, tmp_path):
        for pair in ("pairs=0", "dim_min=1", "dim_max=99"):
            code, out = run_cli(["jordan-demo", "--seed", "1", "--set", pair],
                                tmp_path, "x.csv")
            assert code == 2, pair

    def test_unknown_command_exits_2(self, capsys):
        assert cli.main(["no-such-command"]) == 2
        capsys.readouterr()

    def test_build_config_defaults(self):
        cfg = build_config("fs-attack", seed=5)
        assert isinstance(cfg, ExperimentConfig)
        assert cfg.out == "fs-attack.csv"
        assert cfg.fmt == "csv"
        assert cfg.params["m"] == 4

    def test_build_config_rejects_seed_via_set(self):
        with pytest.raises(ConfigError):
            build_config("fs-attack", seed=5, sets=["seed=3"])

    def test_validation_specifics(self):
        with pytest.raises(ConfigError):
            build_config("partition-claims", seed=1, sets=["mode=magic"])
        with pytest.raises(ConfigError):
            build_config("repetition-sweep", seed=1, sets=["adversary=evil"])
        with pytest.raises(ConfigError):
            build_config("repetition-sweep", seed=1,
                         sets=["adversary=cheat", "n=12"])
        with pytest.raises(ConfigError):
            build_config("effverify-demo", seed=1, sets=["inner=real"])
        with pytest.raises(ConfigError):
            build_config("effverify-demo", seed=1, sets=["suite=lattice"])
        with pytest.raises(ConfigError):
            build_config("effverify-demo", seed=1, sets=["time_bound=64"])
        with pytest.raises(ConfigError):
            build_config("fs-attack", seed=1, sets=["budgets=1,,"])
        with pytest.raises(ConfigError):
            build_config("fs-attack", seed=1, sets=["budgets=1,zap"])

    def test_unwritable_output_is_runtime_failure(self, tmp_path):
        code = cli.main(["jordan-demo", "--seed", "1", "--set", "pairs=1",
                         "--set", "dim_max=3",
                         "--out", str(tmp_path / "no" / "dir" / "x.csv")])
        assert code == 1


def _int_params():
    return [(command, key, spec.allowed) for command, table in cli._PARAMS.items()
            for key, spec in table.items() if spec.kind in ("int", "int-list")]


class TestParamTable:
    @pytest.mark.parametrize("command,key,bounds", _int_params(),
                             ids=[f"{c}:{k}" for c, k, _ in _int_params()])
    def test_range_edges_rejected(self, tmp_path, capsys, command, key, bounds):
        lo, hi = bounds
        for value in (lo - 1, hi + 1):
            code, out = run_cli([command, "--seed", "1", "--set", f"{key}={value}"],
                                tmp_path, "x.out")
            assert code == 2, (key, value)
            assert not out.exists()
            err = capsys.readouterr().err
            assert key in err and f"{lo}..{hi}" in err

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_defaults_validate(self, command):
        cfg = build_config(command, seed=0)
        assert cfg.params == {k: s.default for k, s in cli._PARAMS[command].items()}

    def test_int_list_checks_every_entry(self):
        with pytest.raises(ConfigError, match="m_list"):
            build_config("repetition-sweep", seed=1, sets=["m_list=1,25,3"])
        with pytest.raises(ConfigError, match="budgets"):
            build_config("fs-attack", seed=1, sets=["budgets=0,2"])

    def test_out_of_range_entry_is_named(self):
        with pytest.raises(ConfigError) as err:
            build_config("repetition-sweep", seed=1, sets=["m_list=1,99,3"])
        assert str(err.value) == "m_list=99 outside 1..24"

    def test_int_params_follow_the_integer_rule(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        for bad in (4.0, "4", True, None):
            cfg.write_text(json.dumps({"pairs": bad}))
            with pytest.raises(ConfigError, match="pairs=.* is not an integer"):
                build_config("jordan-demo", seed=1, config_path=str(cfg))

    def test_cross_rules(self):
        with pytest.raises(ConfigError, match="dim_min <= dim_max"):
            build_config("jordan-demo", seed=1, sets=["dim_min=6", "dim_max=4"])
        with pytest.raises(ConfigError, match="T <= 32"):
            build_config("partition-claims", seed=1, sets=["mode=kernel", "T=40"])
        build_config("partition-claims", seed=1, sets=["mode=ideal", "T=40"])
        build_config("repetition-sweep", seed=1, sets=["adversary=cheat", "n=6"])

    def test_cross_rule_messages(self):
        for command, sets, message in (
                ("jordan-demo", ["dim_min=6", "dim_max=4"], "need dim_min <= dim_max, got 6..4"),
                ("partition-claims", ["mode=kernel", "T=40"],
                 "kernel mode limited to T <= 32, got T=40"),
                ("repetition-sweep", ["adversary=cheat", "n=7"],
                 "cheat adversary limited to n <= 6, got n=7")):
            with pytest.raises(ConfigError) as err:
                build_config(command, seed=1, sets=sets)
            assert str(err.value) == message

    def test_fs_attack_work_ceiling(self, tmp_path, capsys):
        # hi-range budgets at the default 5000 trials: 5000 * (1 + 10^6)
        code, out = run_cli(["fs-attack", "--seed", "1", "--set", "budgets=1000000"],
                            tmp_path, "x.csv")
        assert code == 2
        assert not out.exists()
        assert "5,000,005,000 commitment attempts" in capsys.readouterr().err
        # the ceiling itself is allowed, one trial more is not
        build_config("fs-attack", seed=1, sets=["budgets=15", "trials=5000000"])
        with pytest.raises(ConfigError, match="80,000,016 commitment attempts"):
            build_config("fs-attack", seed=1, sets=["budgets=15", "trials=5000001"])

    def test_fs_attack_grind_ceiling(self, tmp_path, capsys):
        # one trial grinding 79 budgets of 10^6 at m = 16 passes the attempt
        # ceiling (79,000,001) but pays a one-row step per two attempts
        budgets = "budgets=" + ",".join(["1000000"] * 79)
        code, out = run_cli(["fs-attack", "--seed", "1", "--set", "m=16", "--set", "trials=1",
                             "--set", budgets], tmp_path, "x.csv")
        assert code == 2
        assert not out.exists()
        assert "1,896,000,000 stream columns" in capsys.readouterr().err
        # README's one budget of 10^6 over 79 trials at m = 16 stays accepted;
        # the ceiling itself (10^6 steps of 45 columns) is allowed, one step more is not
        build_config("fs-attack", seed=1, sets=["m=16", "trials=79", "budgets=1000000"])
        build_config("fs-attack", seed=1, sets=["m=15", "trials=1", "budgets=1000000,1000000"])
        with pytest.raises(ConfigError, match="45,000,045 stream columns"):
            build_config("fs-attack", seed=1, sets=["m=15", "trials=1", "budgets=1000000,1000000,1"])

    def test_repetition_sweep_work_ceiling(self, tmp_path, capsys):
        # 25 entries of m = 20 at the top trial count reach the ceiling
        # exactly; one coordinate more exits 2 and writes nothing
        at_limit = "m_list=" + ",".join(["20"] * 25)
        build_config("repetition-sweep", seed=1, sets=[at_limit, "trials=10000000"])
        code, out = run_cli(["repetition-sweep", "--seed", "1", "--set", at_limit + ",1",
                             "--set", "trials=10000000"], tmp_path, "x.csv")
        assert code == 2
        assert not out.exists()
        assert "5,010,000,000 trial coordinates" in capsys.readouterr().err

    def test_partition_claims_work_ceiling(self, tmp_path, capsys):
        # 14 strategies over the 32^4 kernel grid stay under the ceiling,
        # 15 go over it; so does the largest grid at one strategy
        kernel = ["mode=kernel", "T=32", "m=4"]
        build_config("partition-claims", seed=1, sets=kernel + ["grid_strategies=14"])
        with pytest.raises(ConfigError, match="15,728,640 partition chains"):
            build_config("partition-claims", seed=1, sets=kernel + ["grid_strategies=15"])
        build_config("partition-claims", seed=1, sets=["T=62", "m=4", "grid_strategies=1"])
        with pytest.raises(ConfigError, match="15,752,961 partition chains"):
            build_config("partition-claims", seed=1, sets=["T=63", "m=4", "grid_strategies=1"])
        code, out = run_cli(["partition-claims", "--seed", "1", "--set", "grid_strategies=50",
                             "--set", "T=64", "--set", "m=4"], tmp_path, "x.csv")
        assert code == 2
        assert not out.exists()
        assert "838,860,800 partition chains" in capsys.readouterr().err

    def test_format_checked_from_every_source(self, tmp_path):
        with pytest.raises(ConfigError, match="format"):
            build_config("fs-attack", seed=1, fmt="xml")
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        with pytest.raises(ConfigError, match="format"):
            build_config("fs-attack", seed=1, config_path=str(cfg))
        cfg.write_text(json.dumps({"format": "json"}))
        assert build_config("fs-attack", seed=1, config_path=str(cfg)).fmt == "json"


_MINIMUMS = {
    "jordan-demo": ["pairs=1", "dim_min=2", "dim_max=2"],
    "partition-claims": ["T=2", "m=1", "strategies=1", "grid_strategies=0"],
    "repetition-sweep": ["m_list=1", "trials=1", "n=1"],
    "fs-attack": ["m=1", "budgets=1", "trials=1", "n=1"],
    "effverify-demo": ["n=1", "m=1", "time_bound=256", "trials=1"],
}


class TestHeaderFromRows:
    """The header of a data file is the first row's keys."""

    @pytest.mark.parametrize("command", cli._COMMANDS)
    def test_every_command_writes_a_row_at_its_minimums(self, tmp_path, command):
        # every int parameter set to its lower bound
        assert {k for k, s in cli._PARAMS[command].items() if s.kind != "choice"} == {
            pair.split("=")[0] for pair in _MINIMUMS[command]}
        sets = [arg for pair in _MINIMUMS[command] for arg in ("--set", pair)]
        code, out = run_cli([command, "--seed", "1", *sets], tmp_path, "min.csv")
        assert code == 0
        assert len(read_rows(out)) >= 1

    @pytest.mark.parametrize("fmt", cli.FORMATS)
    def test_rows_that_disagree_on_keys_exit_1_and_write_nothing(
            self, tmp_path, capsys, monkeypatch, fmt):
        rows = [{"claim_id": "a", "bound": 1.0, "measured": 0.5},
                {"claim_id": "a", "measured": 0.5, "bound": 1.0}]
        monkeypatch.setitem(cli._RUNNERS, "jordan-demo", lambda cfg: (rows, {}))
        code, out = run_cli(["jordan-demo", "--seed", "1", "--format", fmt],
                            tmp_path, f"x.{fmt}")
        assert code == 1
        assert not out.exists()
        assert "differ from the header" in capsys.readouterr().err


class TestJordanDemo:
    def test_small_run_passes_all_claims(self, tmp_path, capsys):
        code, out = run_cli(["jordan-demo", "--seed", "7", "--set", "pairs=6",
                             "--set", "dim_max=6"], tmp_path, "j.csv")
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == 12
        assert {r["claim_id"] for r in rows} == {"jordan-reconstruct",
                                                 "jordan-eigenphase"}
        for r in rows:
            assert float(r["measured"]) <= float(r["bound"])
        text = capsys.readouterr().out
        assert "jordan-reconstruct" in text and "measured <= bound" in text


class TestPartitionClaims:
    def test_claims_present_and_passing(self, tmp_path):
        code, out = run_cli(["partition-claims", "--seed", "2", "--set", "T=8",
                             "--set", "m=2", "--set", "strategies=2"],
                            tmp_path, "p.csv")
        assert code == 0
        rows = read_rows(out)
        assert {r["claim_id"] for r in rows} == {
            "err-grid-avg", "branch-exclusivity", "branch-contraction",
            "test-round", "chain-remainder-avg", "chain-err-grid-avg"}
        for r in rows:
            assert float(r["measured"]) <= float(r["bound"]), r["claim_id"]
        assert list(rows[0]) == [
            "seed", "m", "i", "gamma0", "T", "gamma", "mode",
            "norm_psi0", "norm_psi1", "norm_err", "claim_id", "bound", "measured"]

    def test_kernel_mode_stays_sound(self, tmp_path):
        code, out = run_cli(["partition-claims", "--seed", "3", "--set", "T=8",
                             "--set", "m=2", "--set", "strategies=2",
                             "--set", "mode=kernel"], tmp_path, "p.csv")
        assert code == 0
        for r in read_rows(out):
            assert float(r["measured"]) <= float(r["bound"]), r["claim_id"]

    def test_exact_claims_pin_ideal_mode(self, tmp_path):
        code, out = run_cli(["partition-claims", "--seed", "3", "--set", "T=8",
                             "--set", "m=2", "--set", "strategies=1",
                             "--set", "mode=kernel"], tmp_path, "p.csv")
        rows = read_rows(out)
        by_claim = {r["claim_id"]: r for r in rows}
        assert by_claim["branch-exclusivity"]["mode"] == "ideal"
        assert by_claim["test-round"]["mode"] == "ideal"
        assert by_claim["err-grid-avg"]["mode"] == "kernel"


class TestRepetitionSweep:
    def test_testonly_rates_track_two_to_minus_m(self, tmp_path):
        code, out = run_cli(["repetition-sweep", "--seed", "11",
                             "--set", "m_list=1,2,4", "--set", "trials=4000"],
                            tmp_path, "r.csv")
        assert code == 0
        rows = read_rows(out)
        assert [r["m"] for r in rows] == ["1", "2", "4"]
        for r in rows:
            expect = protocol.testonly_rate_oracle(int(r["m"]))
            sigma = np.sqrt(expect * (1 - expect) / int(r["trials"]))
            assert abs(float(r["rate"]) - expect) <= 4 * sigma
            assert r["claim_id"] == "testonly-rate"

    def test_honest_adversary_rows(self, tmp_path):
        code, out = run_cli(["repetition-sweep", "--seed", "12",
                             "--set", "m_list=2,6", "--set", "trials=4000",
                             "--set", "adversary=honest", "--set", "n=6"],
                            tmp_path, "r.csv")
        assert code == 0
        for r in read_rows(out):
            assert r["claim_id"] == "honest-rate"
            assert float(r["rate"]) >= 0.9
            assert float(r["measured"]) <= float(r["bound"])

    def test_cheat_adversary_rows_decrease(self, tmp_path):
        code, out = run_cli(["repetition-sweep", "--seed", "13",
                             "--set", "m_list=1,2,4", "--set", "trials=1500",
                             "--set", "adversary=cheat", "--set", "n=2"],
                            tmp_path, "r.csv")
        assert code == 0
        rates = [float(r["rate"]) for r in read_rows(out)]
        assert rates[0] > rates[-1]

    def test_frozen_column_order(self, tmp_path):
        code, out = run_cli(["repetition-sweep", "--seed", "11",
                             "--set", "m_list=1", "--set", "trials=200"],
                            tmp_path, "r.csv")
        assert list(read_rows(out)[0]) == [
            "m", "adversary", "trials", "accepts", "rate", "queries",
            "claim_id", "bound", "measured"]


class TestFsAttack:
    def test_grinder_rows_match_formula(self, tmp_path):
        code, out = run_cli(["fs-attack", "--seed", "21", "--set", "m=3",
                             "--set", "budgets=1,8", "--set", "trials=3000"],
                            tmp_path, "f.csv")
        assert code == 0
        rows = read_rows(out)
        claims = [r["claim_id"] for r in rows]
        assert claims == ["fs-completeness", "grinder-rate", "grinder-rate",
                          "fs-deterministic"]
        for r in rows:
            if r["claim_id"] != "grinder-rate":
                continue
            budget = int(r["adversary"].strip("grinder[]"))
            expect = protocol.grinder_rate_oracle(3, budget)
            sigma = np.sqrt(expect * (1 - expect) / int(r["trials"]))
            assert abs(float(r["rate"]) - expect) <= 4 * sigma
            assert int(r["queries"]) > 0

    def test_huge_budget_grinds_in_bounded_windows(self, tmp_path, monkeypatch):
        # 20 x (1 + 10^6) attempts is under the ceiling, and every grinder
        # accepts long before its budget runs out.  Attempt windows must
        # not grow with the budget: a block for the whole budget would be
        # 6 * 10^6 raw outputs per trial, where two attempts at the default
        # m = 4 take 3m = 12.
        blocks = []
        take = protocol._TrialStreams.take

        def recording(self, k):
            out = take(self, k)
            blocks.append(out.shape[0])
            return out

        monkeypatch.setattr(protocol._TrialStreams, "take", recording)
        code, out = run_cli(["fs-attack", "--seed", "21", "--set", "budgets=1000000",
                             "--set", "trials=20"], tmp_path, "f.csv")
        assert code == 0
        rows = {r["adversary"]: r for r in read_rows(out)}
        assert rows["grinder[1000000]"]["accepts"] == "20"
        assert 20 < int(rows["grinder[1000000]"]["queries"]) < 20 * 1000
        assert 0 < max(blocks) <= 3 * 4

    def test_completeness_and_determinism_rows_pass(self, tmp_path):
        code, out = run_cli(["fs-attack", "--seed", "22", "--set", "m=2",
                             "--set", "budgets=1", "--set", "trials=1500"],
                            tmp_path, "f.csv")
        rows = {r["claim_id"]: r for r in read_rows(out)}
        assert float(rows["fs-completeness"]["measured"]) <= 0.01
        assert rows["fs-deterministic"]["measured"] == "0"


class TestEffverifyDemo:
    def test_sessions_accept_and_cost_rows(self, tmp_path):
        code, out = run_cli(["effverify-demo", "--seed", "31", "--trials", "3",
                             "--time-bound", "512"], tmp_path, "e.csv")
        assert code == 0
        rows = read_rows(out)
        comp = [r for r in rows if r["claim_id"] == "eff-completeness"]
        assert len(comp) == 3
        assert all(r["verdict"] == "1" for r in comp)
        by_claim = {r["claim_id"]: r for r in rows}
        assert float(by_claim["eff-verifier-flat"]["measured"]) <= 16.0
        assert by_claim["eff-prover-linear"]["measured"] == "0"

    def test_four_round_flow(self, tmp_path):
        code, out = run_cli(["effverify-demo", "--seed", "32", "--trials", "2",
                             "--time-bound", "512", "--set", "flow=four-round"],
                            tmp_path, "e.csv")
        assert code == 0
        rows = read_rows(out)
        assert rows[0]["flow"] == "four-round"
        assert all(r["verdict"] == "1" for r in rows)

    def test_json_mirror_carries_session_dumps(self, tmp_path):
        code, out = run_cli(["effverify-demo", "--seed", "31", "--trials", "2",
                             "--time-bound", "512", "--format", "json"],
                            tmp_path, "e.json")
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["command"] == "effverify-demo"
        assert len(payload["sessions"]) == 2
        dump = payload["sessions"][0]
        bytes.fromhex(dump["ct_prime"])  # messages are hex strings
        assert dump["cost"]["prover_ops"] > dump["cost"]["verifier_ops"]
        assert [set(r) for r in payload["rows"]] == [set(payload["columns"])] * len(payload["rows"])

    def test_m_limited_by_smallest_probe_bound(self, tmp_path, capsys):
        # key derivation takes 9 + 32m machine steps; the cost probe's
        # smallest time bound, 256, covers it up to m = 7
        code, out = run_cli(["effverify-demo", "--seed", "1", "--trials", "1",
                             "--time-bound", "256", "--set", "m=8"], tmp_path, "e8.csv")
        assert code == 2
        assert not out.exists()
        assert "m=8 outside 1..7" in capsys.readouterr().err
        code, out = run_cli(["effverify-demo", "--seed", "1", "--trials", "1",
                             "--time-bound", "256", "--set", "m=7"], tmp_path, "e7.csv")
        assert code == 0
        assert all(r["verdict"] == "1" for r in read_rows(out))

    def test_dedicated_flags_match_set_pairs(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        assert cli.main(["effverify-demo", "--seed", "5", "--trials", "2",
                         "--time-bound", "512", "--out", str(a)]) == 0
        assert cli.main(["effverify-demo", "--seed", "5",
                         "--set", "trials=2", "--set", "time_bound=512",
                         "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


    def test_time_bound_reaches_two_to_the_40(self, tmp_path):
        top = 1 << 40
        cfg = build_config("effverify-demo", seed=1, sets=[f"time_bound={top}"])
        assert cfg.params["time_bound"] == top
        with pytest.raises(ConfigError):
            build_config("effverify-demo", seed=1, sets=[f"time_bound={top + 1}"])
        code, out = run_cli(["effverify-demo", "--seed", "1", "--trials", "1",
                             "--time-bound", str(top)], tmp_path, "e.csv")
        assert code == 0
        row = read_rows(out)[0]
        assert row["verdict"] == "1"
        assert int(row["prover_ops"]) >= top

class TestReproducibility:
    def test_same_seed_byte_identical(self, tmp_path):
        args = ["repetition-sweep", "--seed", "3", "--set", "m_list=1,3",
                "--set", "trials=1000"]
        _, a = run_cli(args, tmp_path, "a.csv")
        _, b = run_cli(args, tmp_path, "b.csv")
        assert a.read_bytes() == b.read_bytes()

    def test_different_seed_differs(self, tmp_path):
        base = ["repetition-sweep", "--set", "m_list=1,3", "--set", "trials=1000"]
        _, a = run_cli(base + ["--seed", "3"], tmp_path, "a.csv")
        _, b = run_cli(base + ["--seed", "4"], tmp_path, "b.csv")
        assert a.read_bytes() != b.read_bytes()

    # sha256 of small runs whose cells involve no LAPACK call, so they
    # are the same on every platform; a change to how a command draws or
    # formats anything shows up here.  The cheat run is the exception: its
    # strategy is a Haar unitary from a QR decomposition, so another
    # LAPACK could round its outcome tables differently, which changes
    # the bytes only if a sampled double falls between the two roundings.
    GOLDEN = [
        (["repetition-sweep", "--seed", "3", "--set", "m_list=1,3",
          "--set", "trials=1000"], "rs.csv",
         "df0755cd492bff285def9b5afd9a6e2f7b14e313f22d535c024525f4ccee34bb"),
        (["repetition-sweep", "--seed", "3", "--set", "m_list=2,5",
          "--set", "trials=1000", "--set", "adversary=honest"], "rs.csv",
         "abaf80891884744ac3c71199e9195423123ada505eea2e5ad27afeb79df18205"),
        (["fs-attack", "--seed", "21", "--set", "m=2", "--set", "budgets=1,4",
          "--set", "trials=300"], "fs.csv",
         "59916c7fc5f265f0f0d914babdbbcca797e903523cb3458384fc7f5a0096858b"),
        (["effverify-demo", "--seed", "31", "--trials", "2", "--time-bound", "512",
          "--format", "json"], "eff.json",
         "cc89b2729289bcc891e1787eacbcd61e42959d73dad0aba88f0b0d119cb7d172"),
        (["repetition-sweep", "--seed", "3", "--set", "adversary=cheat", "--set", "n=4",
          "--set", "m_list=1,3", "--set", "trials=300"], "rs.csv",
         "2ace4924949edebff61cb62c5e38a068b69d2ee6deade4e54e7fcd044ce86ca6"),
        # a two-byte oracle output with its top 7 bits masked, and n = 3
        # so that honest d = 0 rejections are common
        (["fs-attack", "--seed", "21", "--set", "m=9", "--set", "n=3",
          "--set", "budgets=1,3", "--set", "trials=300"], "fs.csv",
         "368e26008879905400904d615ff289132c9717d02309cecf74928fcc890327c1"),
        (["effverify-demo", "--seed", "31", "--trials", "2", "--time-bound", "512",
          "--set", "flow=four-round", "--format", "json"], "eff4.json",
         "e40d4cce9be9e866bfe79946589d59933bd5f8233cca8d9a9f08c1a0480b1c44"),
    ]

    @pytest.mark.parametrize("args,name,digest", GOLDEN,
                             ids=["testonly", "honest", "fs-attack", "effverify-json", "cheat",
                                  "fs-attack-wide", "effverify-four-round-json"])
    def test_golden_digest(self, tmp_path, args, name, digest):
        code, out = run_cli(args, tmp_path, name)
        assert code == 0
        assert hashlib.sha256(out.read_bytes()).hexdigest() == digest

    # The README's jordan-demo and partition-claims runs: which claim each
    # row checks, against which bound, in which order.  These columns
    # involve no LAPACK call, unlike the measured cells beside them.
    _PARTITION_STRATEGY = ([("err-grid-avg", "0.395")] * 16
                           + [("branch-exclusivity", "1e-08"),
                              ("branch-contraction", "0.500000001"),
                              ("test-round", "2.250001"),
                              ("chain-remainder-avg", "0.125000001")])
    README_CLAIMS = [
        (["jordan-demo", "--seed", "7"], "jordan-demo.csv",
         [("jordan-reconstruct", "1e-08"), ("jordan-eigenphase", "1e-07")] * 20),
        (["partition-claims", "--seed", "2", "--set", "T=16", "--set", "m=3"],
         "partition-claims.csv",
         _PARTITION_STRATEGY * 5 + [("chain-err-grid-avg", "3.425")]),
    ]

    @pytest.mark.parametrize("args,name,claims", README_CLAIMS,
                             ids=["jordan-demo", "partition-claims"])
    def test_readme_run_claims_and_bounds(self, tmp_path, args, name, claims):
        code, out = run_cli(args, tmp_path, name)
        assert code == 0
        rows = read_rows(out)
        assert len(rows) == len(claims)
        assert [(r["claim_id"], r["bound"]) for r in rows] == claims

    def test_json_mirror_same_rows_as_csv(self, tmp_path):
        args = ["fs-attack", "--seed", "21", "--set", "m=2",
                "--set", "budgets=1", "--set", "trials=500"]
        _, a = run_cli(args, tmp_path, "a.csv")
        _, b = run_cli(args + ["--format", "json"], tmp_path, "b.json")
        csv_rows = read_rows(a)
        payload = json.loads(b.read_text())
        assert payload["rows"] == [dict(r) for r in csv_rows]


class TestRender:
    def _sample(self, tmp_path):
        _, out = run_cli(["fs-attack", "--seed", "21", "--set", "m=2",
                          "--set", "budgets=1", "--set", "trials=500"],
                         tmp_path, "f.csv")
        return out

    def test_table_has_pass_and_margin(self, tmp_path):
        out = self._sample(tmp_path)
        text = render_summary(str(out))
        lines = text.splitlines()
        assert lines[0].split()[-2:] == ["margin", "pass"]
        assert set(lines[1]) <= {"-", " "}
        assert len(lines) == 2 + 3  # header, ruler, one per row

    def test_round_trip_is_stable(self, tmp_path):
        out = self._sample(tmp_path)
        text = render_summary(str(out))
        cols, rows = parse_table(text)
        assert render_table(cols, rows) == text

    def test_csv_and_json_render_identically(self, tmp_path):
        args = ["effverify-demo", "--seed", "31", "--trials", "2",
                "--time-bound", "512"]
        _, a = run_cli(args, tmp_path, "a.csv")
        _, b = run_cli(args + ["--format", "json"], tmp_path, "b.json")
        assert render_summary(str(a)) == render_summary(str(b))

    def test_header_only_table_for_empty_data(self, tmp_path):
        f = tmp_path / "empty.csv"
        f.write_text("m,claim_id,bound,measured\n")
        text = render_summary(str(f))
        lines = text.splitlines()
        assert len(lines) == 2
        assert lines[0].split() == ["m", "claim_id", "bound", "measured",
                                    "margin", "pass"]

    def test_parse_errors(self, tmp_path):
        missing = tmp_path / "missing.csv"
        with pytest.raises(ParseError):
            render_summary(str(missing))
        empty = tmp_path / "empty.txt"
        empty.write_text("   \n")
        with pytest.raises(ParseError):
            render_summary(str(empty))
        ragged = tmp_path / "ragged.csv"
        ragged.write_text("a,b\n1,2,3\n")
        with pytest.raises(ParseError):
            render_summary(str(ragged))
        badjson = tmp_path / "bad.json"
        badjson.write_text("{\"rows\": []}")
        with pytest.raises(ParseError):
            render_summary(str(badjson))
        nonnum = tmp_path / "nonnum.csv"
        nonnum.write_text("claim_id,bound,measured\nx,low,high\n")
        with pytest.raises(ParseError):
            render_summary(str(nonnum))
        table = tmp_path / "table.txt"
        table.write_text("a   b\n-   -\n1   2\n")
        with pytest.raises(ParseError, match="rendered table"):
            render_summary(str(table))

    def test_render_does_not_duplicate_derived_columns(self, tmp_path):
        f = tmp_path / "withpass.csv"
        f.write_text("claim_id,bound,measured,margin,pass\nx,1,0.5,0.5,yes\n")
        text = render_summary(str(f))
        assert text.splitlines()[0].split() == ["claim_id", "bound", "measured",
                                                "margin", "pass"]

    def test_render_exit_codes_via_main(self, tmp_path, capsys):
        out = self._sample(tmp_path)
        assert cli.main(["render", str(out)]) == 0
        assert "pass" in capsys.readouterr().out
        assert cli.main(["render", str(tmp_path / "nope.csv")]) == 1
        capsys.readouterr()


class TestRenderTypedErrors:
    """Malformed data files exit 1 with a parse error naming the file."""

    def _render_fails(self, path, capsys):
        assert cli.main(["render", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("parse error:") and str(path) in err

    def test_non_utf8_data_file(self, tmp_path, capsys):
        f = tmp_path / "bad.csv"
        f.write_bytes(b"claim_id,bound,measured\n\xff,1,0\n")
        self._render_fails(f, capsys)

    def test_json_rows_not_a_list(self, tmp_path, capsys):
        f = tmp_path / "rows.json"
        f.write_text(json.dumps({"columns": ["claim_id"], "rows": 5}))
        with pytest.raises(ParseError, match="rows"):
            render_summary(str(f))
        self._render_fails(f, capsys)

    @pytest.mark.parametrize("cell", [None, True, [1, 2]], ids=["null", "true", "list"])
    def test_json_cell_of_wrong_type(self, tmp_path, capsys, cell):
        f = tmp_path / "cell.json"
        row = {"claim_id": "x", "bound": 1, "measured": cell}
        f.write_text(json.dumps({"columns": list(row), "rows": [row]}))
        with pytest.raises(ParseError, match="cell"):
            render_summary(str(f))
        self._render_fails(f, capsys)


class TestConsoleScript:
    def test_installed_entry_point(self, tmp_path):
        out = tmp_path / "j.csv"
        proc = subprocess.run(
            ["cvqc-lab", "jordan-demo", "--seed", "1", "--set", "pairs=2",
             "--set", "dim_max=4", "--out", str(out)],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert out.exists()
        assert "jordan-reconstruct" in proc.stdout

    def test_usage_error_exits_2(self):
        proc = subprocess.run([sys.executable, "-m", "cvqc_lab.cli"],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 2

    def test_run_commands_never_import_scipy(self, tmp_path):
        # partition-claims always adds the controlled test-round row, so the
        # block-diagonal strategy placement runs as well
        runs = [
            ["jordan-demo", "--seed", "1", "--set", "pairs=3", "--set", "dim_max=6"],
            ["partition-claims", "--seed", "2", "--set", "T=4", "--set", "m=2",
             "--set", "strategies=1"],
            ["repetition-sweep", "--seed", "3", "--set", "m_list=1,2", "--set", "trials=200"],
            ["fs-attack", "--seed", "4", "--set", "m=2", "--set", "budgets=1,2",
             "--set", "trials=100"],
            ["effverify-demo", "--seed", "5", "--trials", "1", "--time-bound", "256"],
        ]
        script = (
            "import sys\n"
            "import cvqc_lab\n"
            "import cvqc_lab.cli\n"
            f"for k, args in enumerate({runs!r}):\n"
            f"    out = {str(tmp_path)!r} + f'/run{{k}}.csv'\n"
            "    assert cvqc_lab.cli.main(args + ['--out', out]) == 0, args\n"
            "assert 'scipy' not in sys.modules, sorted(m for m in sys.modules if 'scipy' in m)\n"
        )
        proc = subprocess.run([sys.executable, "-c", script],
                              capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.glob("run*.csv"))) == len(runs)

    def test_module_run_prints_nothing_on_stderr(self, tmp_path):
        data = tmp_path / "d.csv"
        data.write_text("claim_id,bound,measured\nx,1,0.5\n")
        proc = subprocess.run([sys.executable, "-m", "cvqc_lab.cli", "render", str(data)],
                              capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0
        assert proc.stderr == ""
        assert "yes" in proc.stdout
