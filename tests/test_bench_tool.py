"""tools/bench.py: the source line count each record keeps and --compare prints."""

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
