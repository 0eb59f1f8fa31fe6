"""Every Markdown file that program code names must exist.

Docstrings and comments cite Markdown files (``EXPERIMENTS.md`` and the
like) to explain a bench's assert or a driver's scale.  A citation that
names a missing file explains nothing, so this test resolves each one
against the repository root and against the citing file's directory.
"""

from __future__ import annotations

import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CITATION = re.compile(r"[\w./-]+\.md\b")


def citations():
    for top in ("src", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for name in CITATION.findall(path.read_text(encoding="utf-8")):
                yield path, name


def test_citations_found():
    # Guards the scan itself: the benches do cite EXPERIMENTS.md.
    assert any(name == "EXPERIMENTS.md" for _, name in citations())


def test_cited_markdown_files_exist():
    missing = [f"{path.relative_to(ROOT)}: {name}"
               for path, name in citations()
               if not ((ROOT / name).is_file()
                       or (path.parent / name).is_file())]
    assert not missing, missing
