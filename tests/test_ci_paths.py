"""Every repository path a CI ``run:`` step names must exist.

A step left pointing at a moved or deleted tool, test or scenario file
fails only on the CI runner.  This reads the ``run:`` steps of
``.github/workflows/ci.yml`` with a small line parser (tier 1 installs
no YAML library) and checks each path against the checkout.
"""

import os
import re

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DIRS = "tools|tests|scenarios|benchmarks|perfbench|examples|src"
PATH = re.compile(rf"(?<![\w./-])((?:{DIRS})/[\w./-]+)")


def run_text(workflow):
    """The shell text of every ``run:`` step, inline or ``|`` block."""
    steps, block = [], None
    for line in workflow.splitlines():
        indent = len(line) - len(line.lstrip())
        if block is not None and (not line.strip() or indent > block):
            steps.append(line)
            continue
        block, match = None, re.match(r"\s*(?:- )?run:\s*(.*)", line)
        if match and match.group(1) in ("|", ">"):
            block = indent
        elif match:
            steps.append(match.group(1))
    return "\n".join(steps)


def test_parser_reads_inline_and_block_steps():
    text = run_text(
        "  - run: python tools/a.py\n"
        "    name: x\n"
        "    run: |\n"
        "      pytest tests/test_b.py \\\n"
        "        scenarios/c.json\n"
        "    env:\n"
        "      PYTHONPATH: src/not_a_step\n"
    )
    assert PATH.findall(text) == ["tools/a.py", "tests/test_b.py", "scenarios/c.json"]


with open(os.path.join(ROOT, ".github", "workflows", "ci.yml"), encoding="utf-8") as f:
    NAMED = sorted(set(PATH.findall(run_text(f.read()))))


@pytest.mark.parametrize("path", NAMED)
def test_ci_path_exists(path):
    assert os.path.exists(os.path.join(ROOT, path)), f"ci.yml names missing {path}"


def test_ci_names_tools_tests_and_scenarios():
    assert {path.split("/")[0] for path in NAMED} >= {"tools", "tests", "scenarios"}
