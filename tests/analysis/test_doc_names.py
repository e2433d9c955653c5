"""Every ``repro`` name the docs cite still resolves.

README.md and DESIGN.md point readers at modules and attributes by
dotted name; a refactor that moves or deletes one leaves a dead pointer
that nothing else notices.  A name is checked when it sits alone in a
backtick span and starts with ``repro.``, or when it is a module cell of
README's paper-to-module table (written there without the ``repro.``
prefix).
"""

import importlib
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent.parent

_REPRO_NAME = re.compile(r"`(repro(?:\.\w+)+)`")
_MODULE_CELL = re.compile(r"`([a-z_]\w*(?:\.\w+)*)`")


def _cited_names(doc):
    text = (ROOT / doc).read_text(encoding="utf-8")
    names = set(_REPRO_NAME.findall(text))
    if doc == "README.md":
        table = text.split("## What is implemented", 1)[1].split("\n## ", 1)[0]
        for row in table.splitlines():
            cells = row.split("|")
            if len(cells) > 4 and cells[1].strip().startswith("§"):
                names.update(f"repro.{name}" for name in _MODULE_CELL.findall(cells[3]))
    return names


def _resolves(name):
    parts = name.split(".")
    for split in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ModuleNotFoundError:
            continue
        for attr in parts[split:]:
            if not hasattr(owner, attr):
                return False
            owner = getattr(owner, attr)
        return True
    return False


@pytest.mark.parametrize("doc", ["README.md", "DESIGN.md"])
def test_every_cited_repro_name_resolves(doc):
    names = _cited_names(doc)
    assert names
    assert sorted(name for name in names if not _resolves(name)) == []
