"""Golden JSON reports for the corpus programs.

The file pins the whole `report_to_json` of each program, cone witnesses
included.  A witness is the weight that settled its monomial in
`geometry.lower_hull`: a certificate's (a unit vector, the indicator of the
monomial's column minima, the gap weight, or a perceptron step from the
indicator), or else the vertex an LP solve ends at.  So these goldens also
pin the order of the certificates and the simplex's pivot sequence, not only
which weights win.

Regenerate (only on purpose, saying why in CHANGES.md) with
`PYTHONPATH=src python tests/test_golden_reports.py`.
"""

import json
from pathlib import Path

import pytest

from tropinf.infer import analyze, report_from_json, report_to_json

from conftest import load, load_source

GOLDEN = Path(__file__).resolve().parent / "golden" / "reports.json"
PROGRAMS = ("m1", "m2", "m3", "m4_2", "m4_3", "m4_4", "tower2")


def report_of(name: str) -> dict:
    return report_to_json(analyze(load(name), 1, source=load_source(name)))


@pytest.mark.parametrize("name", PROGRAMS)
def test_report_matches_golden(name):
    golden = json.loads(GOLDEN.read_text())
    assert report_of(name) == golden[name]


@pytest.mark.parametrize("name", PROGRAMS)
def test_golden_round_trips(name):
    golden = json.loads(GOLDEN.read_text())
    assert report_to_json(report_from_json(golden[name])) == golden[name]


if __name__ == "__main__":
    GOLDEN.write_text(
        json.dumps({name: report_of(name) for name in PROGRAMS}, indent=1, sort_keys=True)
        + "\n"
    )
