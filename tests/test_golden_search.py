"""Golden root rows of the bounded typing search.

The file pins every row of `search(program, 2)` for the corpus
programs, keyed by targets 0 and 1: context, refinement type, fixpoint count and
minimized polynomial.  The report goldens only see the one closed row at the
target; these pin the rest.

Regenerate (only on purpose, saying why in CHANGES.md) with
`PYTHONPATH=src python tests/test_golden_search.py`.
"""

import json
from pathlib import Path

import pytest

from tropinf.algebra import poly_to_json
from tropinf.typesys import itype_to_text, search

from conftest import load

GOLDEN = Path(__file__).resolve().parent / "golden" / "search_rows.json"
CASES = [
    (name, target)
    for name in ("m1", "m2", "m3", "m4_2", "m4_3", "m4_4", "tower2")
    for target in (0, 1)
]


def ctx_to_text(ctx) -> str:
    parts = []
    for name, ms in ctx:
        inner = ", ".join(itype_to_text(t) for t in ms)
        parts.append(f"{name}: [{inner}]")
    return "; ".join(parts)


def rows_of(name: str, target: int) -> list:
    return [
        {
            "ctx": ctx_to_text(e.ctx),
            "type": itype_to_text(e.itype),
            "fixes": e.fixes,
            "polynomial": poly_to_json(e.poly),
        }
        for e in search(load(name), 2).entries
    ]


@pytest.mark.parametrize("name,target", CASES)
def test_search_rows_match_golden(name, target):
    golden = json.loads(GOLDEN.read_text())
    assert rows_of(name, target) == golden[f"{name}@{target}"]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps(
            {f"{name}@{target}": rows_of(name, target) for name, target in CASES},
            indent=1,
            sort_keys=True,
        )
        + "\n"
    )
