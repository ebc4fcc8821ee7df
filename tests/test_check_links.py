"""``tools/check_links.py`` fails on module commands that no longer run.

The ``docs-links`` CI job runs the tool on the checkout; here it runs on
a throwaway tree with one package module, one ``__main__`` package and
a reference doc naming both plus one module that does not exist.
"""

import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def load_tool():
    spec = importlib.util.spec_from_file_location(
        "check_links", os.path.join(ROOT, "tools", "check_links.py")
    )
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    return tool


def make_tree(root, text, name="README.md"):
    (root / "src" / "repro" / "analysis").mkdir(parents=True)
    (root / "src" / "repro" / "analysis" / "tables.py").write_text("")
    (root / "src" / "repro" / "serve").mkdir()
    (root / "src" / "repro" / "serve" / "__main__.py").write_text("")
    path = root / name
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text, encoding="utf-8")


def test_stale_module_command_fails_and_valid_ones_pass(tmp_path, capsys):
    make_tree(tmp_path, (
        "Render with `python -m repro.analysis.tables`.\n"
        "Serve with `python -m repro.serve --port 0`.\n"
        "Old entry: `python -m repro.analysis.plots figure5`.\n"
    ))
    assert load_tool().main(["check_links", str(tmp_path)]) == 1
    out = capsys.readouterr().out
    assert out.splitlines()[0] == (
        "README.md:3: stale module command -> "
        "python -m repro.analysis.plots"
    )
    assert "tables" not in out
    assert "serve" not in out


def test_change_logs_may_quote_old_commands(tmp_path):
    make_tree(tmp_path, "Removed `python -m repro.analysis.plots`.\n",
              name="CHANGES.md")
    assert load_tool().main(["check_links", str(tmp_path)]) == 0
