"""tools/same_outputs.py runs every command and reports each failure."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("same_outputs", ROOT / "tools" / "same_outputs.py")
same_outputs = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(same_outputs)

# A stand-in for ``python -m tscast``: one file per command, and a failing evaluate.
STUB_MAIN = """
import sys
from pathlib import Path

args = sys.argv[1:]
if args[0] == "evaluate":
    sys.exit("error: the stub cannot evaluate")
out = Path(args[args.index("--out-dir") + 1])
out.mkdir()
(out / "out.txt").write_text(" ".join(args))
"""


def _stub_tree(root: Path) -> Path:
    package = root / "tscast"
    package.mkdir(parents=True)
    (package / "__init__.py").write_text("")
    (package / "__main__.py").write_text(STUB_MAIN)
    return root


def test_run_tree_runs_past_a_failing_command_and_reports_it(tmp_path):
    work = tmp_path / "work"
    failures = same_outputs.run_tree(_stub_tree(tmp_path / "src"), work)

    evaluations = [args for args in same_outputs.COMMANDS if args[0] == "evaluate"]
    for args in same_outputs.COMMANDS:
        if args not in evaluations:
            out_dir = args[args.index("--out-dir") + 1]
            assert (work / out_dir / "out.txt").read_text() == " ".join(args)
    assert len(failures) == len(evaluations) == 2
    for report, args in zip(failures, evaluations):
        assert f"tscast {' '.join(args)} failed with code 1:" in report
        assert report.endswith("error: the stub cannot evaluate")


def test_main_lists_every_file_and_exits_1_on_a_failed_command(tmp_path, monkeypatch, capsys):
    parent, change = _stub_tree(tmp_path / "parent"), _stub_tree(tmp_path / "change")

    def fake_run_tree(src, work):
        work.mkdir(parents=True)
        (work / "table.csv").write_text("1\n")
        return [] if src == parent else [f"{src}: tscast evaluate failed with code 1:\nerror: boom"]

    monkeypatch.setattr(same_outputs, "run_tree", fake_run_tree)
    assert same_outputs.main([str(parent), str(change)]) == 1
    printed = capsys.readouterr().out
    assert "same  table.csv" in printed
    assert "1 of 1 files the same" in printed
    assert f"{change}: tscast evaluate failed with code 1:\nerror: boom" in printed
