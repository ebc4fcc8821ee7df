#!/usr/bin/env python3
"""Check that relative links and module commands in the Markdown resolve.

Scans every tracked ``*.md`` under the repository root (including
``docs/``) for inline Markdown links and verifies that each relative
target exists on disk. External links (http/https/mailto) and pure
in-page anchors are skipped.

The reference documentation (``docs/``, READMEs, DESIGN, CONTRIBUTING
and EXPERIMENTS) must also name only module commands that run: each
``python -m repro.<dotted.module>`` needs a ``src/repro/<dotted/module>.py``
or a ``src/repro/<dotted/module>/__main__.py``. Change logs and planning
notes quote commands as they once were, so they are not checked for
these. Exits non-zero listing every broken link and stale command.

Usage: python tools/check_links.py [root]
"""

from __future__ import annotations

import re
import sys
from pathlib import Path

LINK_RE = re.compile(r"\[[^\]]*\]\(([^)\s]+)\)")
SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")
SKIP_DIRS = {".git", ".venv", "node_modules", "__pycache__", "profiles"}
MODULE_RE = re.compile(r"python3? -m (repro(?:\.\w+)+)")
REFERENCE_DOCS = {
    "README.md", "CONTRIBUTING.md", "DESIGN.md", "EXPERIMENTS.md",
}


def iter_markdown(root: Path):
    for path in sorted(root.rglob("*.md")):
        if not SKIP_DIRS.intersection(path.relative_to(root).parts):
            yield path


def broken_links(path: Path):
    text = path.read_text(encoding="utf-8")
    for match in LINK_RE.finditer(text):
        target = match.group(1)
        if target.startswith(SKIP_PREFIXES):
            continue
        relative = target.split("#", 1)[0]
        if not relative:
            continue
        if not (path.parent / relative).exists():
            line = text.count("\n", 0, match.start()) + 1
            yield line, target


def is_reference(root: Path, path: Path) -> bool:
    relative = path.relative_to(root)
    return relative.parts[0] == "docs" or relative.name in REFERENCE_DOCS


def stale_module_commands(root: Path, path: Path):
    text = path.read_text(encoding="utf-8")
    for match in MODULE_RE.finditer(text):
        module = root / "src" / Path(*match.group(1).split("."))
        if not (
            module.with_suffix(".py").is_file()
            or (module / "__main__.py").is_file()
        ):
            line = text.count("\n", 0, match.start()) + 1
            yield line, match.group(0)


def main(argv):
    root = Path(argv[1]) if len(argv) > 1 else Path(__file__).resolve().parents[1]
    failures = 0
    checked = 0
    for path in iter_markdown(root):
        checked += 1
        for line, target in broken_links(path):
            failures += 1
            print(f"{path.relative_to(root)}:{line}: broken link -> {target}")
        if not is_reference(root, path):
            continue
        for line, command in stale_module_commands(root, path):
            failures += 1
            print(
                f"{path.relative_to(root)}:{line}: stale module command -> "
                f"{command}"
            )
    print(
        f"checked {checked} markdown files, {failures} broken links "
        "or stale module commands"
    )
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
