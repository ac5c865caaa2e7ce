"""tools/bench.py: the source line count, results digests and README data file
digests each record keeps, --compare's verdicts and the default seeds."""

import hashlib
import importlib.util
import json
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "bench", Path(__file__).resolve().parent.parent / "tools" / "bench.py")
bench = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench)


def test_src_lines_counts_the_package_lines_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "cvqc_lab"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")  # no final newline, which wc -l does not count
    (pkg / "notes.txt").write_text("\n" * 5)
    assert bench._src_lines(tmp_path) == 2


def test_compare_prints_both_sides_src_lines(tmp_path, capsys):
    for name, lines in (("a", 4031), ("b", 3993)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"runs": [], "src_lines": lines}))
    (tmp_path / "old.json").write_text(json.dumps({"runs": []}))
    assert bench.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
    assert "src_lines: 4031 -> 3993" in capsys.readouterr().out
    bench.compare(str(tmp_path / "old.json"), str(tmp_path / "b.json"))
    assert "src_lines: unrecorded -> 3993" in capsys.readouterr().out


def test_src_lines_by_file_counts_each_file_as_wc_does(tmp_path):
    pkg = tmp_path / "src" / "cvqc_lab"
    pkg.mkdir(parents=True)
    (pkg / "a.py").write_text("x = 1\ny = 2\n")
    (pkg / "b.py").write_text("z = 3")
    (pkg / "notes.txt").write_text("\n" * 5)
    assert bench._src_lines_by_file(tmp_path) == {"a.py": 2, "b.py": 0}


def test_compare_prints_each_file_whose_count_changed(tmp_path, capsys):
    records = {"a": {"cli.py": 774, "config.py": 62, "gone.py": 9},
               "b": {"cli.py": 738, "config.py": 62, "new.py": 4}}
    for name, by_file in records.items():
        (tmp_path / f"{name}.json").write_text(json.dumps(
            {"runs": [], "src_lines": sum(by_file.values()), "src_lines_by_file": by_file}))
    (tmp_path / "old.json").write_text(json.dumps({"runs": [], "src_lines": 845}))
    assert bench.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[:4] == ["src_lines: 845 -> 804", "  cli.py: 774 -> 738",
                         "  gone.py: 9 -> 0", "  new.py: 0 -> 4"]
    # a record without the field prints the total alone
    bench.compare(str(tmp_path / "old.json"), str(tmp_path / "b.json"))
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "src_lines: 845 -> 804"
    assert not any(ln.startswith("  ") and ".py" in ln for ln in lines)


def _record(path, wall_s_by_seed):
    runs = [{"workload": "sweep", "seed": seed,
             "result": {"correct": True, "failed": 0, "metrics": {"wall_s": {"value": v}}}}
            for seed, v in wall_s_by_seed.items()]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def _wall_s_verdict(tmp_path, capsys, parent, change):
    code = bench.compare(_record(tmp_path / "a.json", parent), _record(tmp_path / "b.json", change))
    (line,) = [ln for ln in capsys.readouterr().out.splitlines() if "wall_s" in ln]
    return code, line


def test_ten_winning_pairs_give_a_gain(tmp_path, capsys):
    seeds = range(1, 11)
    code, line = _wall_s_verdict(tmp_path, capsys, {s: 0.10 + 0.001 * s for s in seeds},
                                 {s: 0.06 + 0.001 * s for s in seeds})
    assert code == 0
    assert "wins 10/10" in line and line.endswith("GAIN")


def test_three_winning_pairs_give_no_gain(tmp_path, capsys):
    seeds = range(1, 4)
    code, line = _wall_s_verdict(tmp_path, capsys, {s: 0.10 + 0.001 * s for s in seeds},
                                 {s: 0.06 + 0.001 * s for s in seeds})
    assert code == 0
    assert "wins 3/3" in line and line.endswith("no gain")


def test_a_median_worse_than_the_bound_is_flagged(tmp_path, capsys):
    # wall_s's bound is 20%; these runs are 50% slower
    seeds = range(1, 11)
    code, line = _wall_s_verdict(tmp_path, capsys, {s: 0.10 + 0.001 * s for s in seeds},
                                 {s: 1.5 * (0.10 + 0.001 * s) for s in seeds})
    assert code == 1
    assert line.endswith("no gain  WORSE")


def test_default_seeds_are_one_to_ten(monkeypatch):
    seen = []
    monkeypatch.setattr(bench, "record", lambda args: seen.append(args.seeds) or 0)
    assert bench.main(["--label", "x"]) == 0
    assert seen == [list(range(1, 11))]


def _digest_record(path, digests):
    runs = [{"workload": workload, "seed": seed, "digest": digest,
             "result": {"correct": True, "failed": 0, "metrics": {}}}
            for workload, seed, digest in digests]
    path.write_text(json.dumps({"runs": runs}))
    return str(path)


def test_same_seed_digests_must_match(tmp_path, capsys):
    parent = _digest_record(tmp_path / "a.json", [("sweep", 1, "aa"), ("sweep", 2, "bb"),
                                                  ("hashed", 1, "cc"), ("sweep", 1, "aa")])
    same = _digest_record(tmp_path / "b.json", [("sweep", 1, "aa"), ("hashed", 1, "cc"),
                                                ("sweep", 2, "bb"), ("sweep", 1, "aa"),
                                                ("sweep", 3, "dd")])
    assert bench.compare(parent, same) == 0
    assert "results identical at 4 pairs" in capsys.readouterr().out
    moved = _digest_record(tmp_path / "c.json", [("sweep", 1, "aa"), ("hashed", 1, "ee")])
    assert bench.compare(parent, moved) == 1
    out = capsys.readouterr().out
    assert "FLAG hashed seed 1: results sha256 cc -> ee" in out
    assert "results identical" not in out


def test_runs_recorded_without_a_digest_are_not_paired(tmp_path, capsys):
    old = _digest_record(tmp_path / "a.json", [("sweep", 1, None), ("sweep", 2, "bb")])
    new = _digest_record(tmp_path / "b.json", [("sweep", 1, "aa"), ("sweep", 2, "bb")])
    assert bench.compare(old, new) == 0
    assert "results identical at 1 pairs" in capsys.readouterr().out


def test_each_run_keeps_its_results_digest(tmp_path, monkeypatch):
    class Done:
        returncode = 0
        stdout = '{"metrics": {}}\n'
        stderr = "machine: nproc 2\nresults sha256: 0123abcd\n"

    monkeypatch.setattr(bench.subprocess, "run", lambda *args, **kwargs: Done())
    run = bench._run_once(tmp_path, "sweep", 4, 1.0)
    assert (run["machine"], run["digest"]) == ("machine: nproc 2", "0123abcd")


_README = """# demo

```sh
pytest            # not a cvqc-lab command
```

```sh
cvqc-lab jordan-demo --seed 7 --set pairs=2   # residuals
cvqc-lab render jordan-demo.csv
```
"""


def test_each_record_keeps_the_readme_data_file_digests(tmp_path, monkeypatch):
    (tmp_path / "README.md").write_text(_README)
    calls = []

    class Done:
        returncode = 0
        stderr = ""

    def fake_run(cmd, cwd, env, **kwargs):
        calls.append((cmd, env["PYTHONPATH"].split(bench.os.pathsep)[0]))
        (Path(cwd) / "jordan-demo.csv").write_bytes(b"a,b\n1,2\n")
        return Done()

    monkeypatch.setattr(bench.subprocess, "run", fake_run)
    digests = bench._readme_digests(tmp_path)
    assert calls == [([bench.sys.executable, "-m", "cvqc_lab.cli", "jordan-demo", "--seed", "7",
                       "--set", "pairs=2"], str(tmp_path / "src"))]
    assert digests == {"jordan-demo --seed 7 --set pairs=2":
                       {"jordan-demo.csv": hashlib.sha256(b"a,b\n1,2\n").hexdigest()}}


def test_compare_flags_a_readme_command_whose_files_differ(tmp_path, capsys):
    def record(name, digest):
        path = tmp_path / f"{name}.json"
        readme = {"jordan-demo --seed 7": {"jordan-demo.csv": digest}}
        path.write_text(json.dumps({"runs": [], "readme": readme}))
        return str(path)

    parent, same, moved = record("a", "aa"), record("b", "aa"), record("c", "bb")
    assert bench.compare(parent, same) == 0
    assert "README data files identical at 1 commands" in capsys.readouterr().out
    assert bench.compare(parent, moved) == 1
    out = capsys.readouterr().out
    assert "FLAG README `cvqc-lab jordan-demo --seed 7`" in out
    assert "README data files identical" not in out


def test_layer_summary_takes_medians_ratios_and_wins():
    row = bench._layer_summary([1.0, 2.0, 4.0, 3.0], [0.9, 2.2, 2.0, 1.5])
    assert (row["a"], row["b"]) == (2.5, 1.75)
    # per-round ratios 0.9, 1.1, 0.5, 0.5
    assert row["ratio"] == 0.7 and (row["wins"], row["rounds"]) == (3, 4)


def test_layer_verdict_needs_the_ratio_and_the_wins():
    def verdict(ratio, wins, rounds=20):
        return bench._layer_verdict({"ratio": ratio, "wins": wins, "rounds": rounds})

    assert verdict(0.9, 16) == "GAIN"
    assert verdict(0.5, 20) == "GAIN"
    assert verdict(0.91, 20) == "noise"   # every round won, but by too little
    assert verdict(0.5, 15) == "noise"    # a large ratio from too few rounds won
    assert verdict(1.3, 0) == "noise"
    assert bench._layer_verdict({"skipped": "A: missing"}) == "skipped (A: missing)"


def test_time_layers_alternates_sides_and_keeps_the_best_call():
    # each call advances a fake clock by its next cost
    order, now = [], [0]
    costs = {"a": iter([3, 2, 5, 4, 1, 6]), "b": iter([1, 1, 2, 9, 4, 3])}

    def call(tag):
        def run():
            order.append(tag)
            now[0] += next(costs[tag])
        return run

    calls_a = {"x": call("a"), "only a": call("a"), "broken": call("a")}
    calls_b = {"x": call("b"), "broken": "TypeError: no such signature"}
    times = bench._time_layers(calls_a, calls_b, rounds=3, repeat=2, clock=lambda: now[0])
    assert times["only a"] == "B: missing"
    assert times["broken"] == "B: TypeError: no such signature"
    assert order == ["a", "a", "b", "b", "b", "b", "a", "a", "a", "a", "b", "b"]
    assert times["x"] == ([2, 4, 1], [1, 2, 3])


def test_compare_prints_the_layers_with_their_verdicts(tmp_path, capsys):
    rows = {"seeding rows=300": {"a": 2e-4, "b": 1e-4, "ratio": 0.5, "wins": 21, "rounds": 21},
            "sweep honest m=20": {"a": 6e-3, "b": 5.9e-3, "ratio": 0.98, "wins": 12, "rounds": 21},
            "words rows=1": {"skipped": "A: AttributeError: no words"}}
    layers = {"a": "../parent", "rounds": 21, "rows": rows}
    (tmp_path / "a.json").write_text(json.dumps({"runs": []}))
    (tmp_path / "b.json").write_text(json.dumps({"runs": [], "layers": layers}))
    assert bench.compare(str(tmp_path / "a.json"), str(tmp_path / "b.json")) == 0
    out = capsys.readouterr().out.splitlines()
    start = next(i for i, ln in enumerate(out) if ln.startswith("layers: A = ../parent, B = this checkout"))
    assert "ratio <= 0.9 and B wins >= 80% of rounds" in out[start]
    assert out[start + 1].split()[-1] == "GAIN" and "wins 21/21" in out[start + 1]
    assert out[start + 2].split()[-1] == "noise" and "ratio 0.980" in out[start + 2]
    assert out[start + 3].endswith("skipped (A: AttributeError: no words)")


def test_layers_record_times_every_layer_of_both_checkouts(tmp_path, monkeypatch):
    # both sides are this checkout's src, loaded as two packages
    for name in ("src", "perfbench"):
        (tmp_path / name).symlink_to(bench.ROOT / name)
    monkeypatch.setattr(bench, "ROOT", tmp_path)
    monkeypatch.setattr(bench, "_LAYER_ROUNDS", 1)
    assert bench.main(["--label", "t", "--layers", "--checkout", str(tmp_path)]) == 0
    record = json.loads((tmp_path / "BENCH_t.json").read_text())
    assert record["layers"]["a"] == "."
    rows = record["layers"]["rows"]
    assert len(rows) == 4 + 4 + 15
    assert not [name for name, row in rows.items() if "skipped" in row]
    assert bench.sys.modules["cvqc_lab_a"] is not bench.sys.modules["cvqc_lab_b"]
    # the sweep layers are perfbench's operations, each calling into its own side
    ops = {side: bench._sweep_ops(bench.sys.modules[f"cvqc_lab_{side}"]) for side in "ab"}
    assert sorted(f"sweep {op.name}" for op in ops["a"]) == [name for name in rows if name.startswith("sweep ")]
    assert ops["a"][0].call.__globals__["protocol"] is bench.sys.modules["cvqc_lab_a.protocol"]
    assert ops["b"][0].call.__globals__["protocol"] is bench.sys.modules["cvqc_lab_b.protocol"]
