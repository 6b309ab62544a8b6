"""The CI workflow only names paths that exist.

``pytest`` exits 4 ("file or directory not found") before running
anything when one path on its command line is missing, so a test file
deleted without its workflow line silently kills every other suite in
that step — the nightly stress step ran nothing for that reason.
"""

from __future__ import annotations

import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
WORKFLOW = REPO / ".github" / "workflows" / "ci.yml"
#: a repo-relative path token under one of the source roots
PATH_TOKEN = re.compile(r"(?<![\w./-])(?:src|tests|benchmarks|examples)/[\w./-]*")


def test_every_path_the_workflow_names_exists():
    tokens = sorted(set(PATH_TOKEN.findall(WORKFLOW.read_text())))
    assert len(tokens) > 20, "the path pattern stopped matching the workflow"
    missing = [t for t in tokens if not (REPO / t).exists()]
    assert not missing, f"ci.yml names paths that do not exist: {missing}"
