"""The docs only name ``repro.*`` objects that exist.

A module or class deleted without its README / DESIGN.md row leaves the
docs pointing an operator at nothing. Every backticked dotted
``repro.<name>`` in the three top-level documents must resolve: the
longest importable module prefix, then ``getattr`` down the rest.
"""

from __future__ import annotations

import importlib
import re
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
DOCS = ("README.md", "DESIGN.md", "EXPERIMENTS.md")
#: a dotted repro name that opens a backticked span; a call's
#: arguments, a trailing ``.`` or ``*`` glob end the name
DOTTED = re.compile(r"`(repro(?:\.[A-Za-z_]\w*)+)")


def _resolves(name: str) -> bool:
    parts = name.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            obj = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        try:
            for attr in parts[cut:]:
                obj = getattr(obj, attr)
        except AttributeError:
            return False
        return True
    return False


def test_every_repro_name_the_docs_mention_resolves():
    names = sorted({
        name
        for doc in DOCS
        for name in DOTTED.findall((REPO / doc).read_text())
    })
    assert len(names) > 40, "the name pattern stopped matching the docs"
    missing = [n for n in names if not _resolves(n)]
    assert not missing, f"docs name repro objects that do not exist: {missing}"
