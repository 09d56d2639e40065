"""The documented top-level API: the README quickstart and the benchmark."""

import re
from pathlib import Path

import pgtrees

ROOT = Path(__file__).resolve().parent.parent


def test_readme_quickstart_runs():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = re.search(r"```python\n(.*?)```", readme, re.S).group(1)
    exec(compile(block, "README.md", "exec"), {})


def test_top_level_has_every_name_the_benchmark_reads():
    run = (ROOT / "perfbench" / "run.py").read_text(encoding="utf-8")
    names = set(re.findall(r"\bpg\.(\w+)", run))
    # program_api looks its names up with getattr(pg, name)
    api = re.search(r"names = \(([^)]*)\)", run).group(1)
    names |= set(re.findall(r'"(\w+)"', api))
    assert {"find_counterexample", "width_report", "leaf_count"} <= names
    assert [name for name in sorted(names) if not hasattr(pgtrees, name)] == []
