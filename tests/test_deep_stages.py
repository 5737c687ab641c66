"""The deep stages of the reference run, N = 144 and 288.

tests/test_acceptance.py pins stages 0-3 of the reference config.  Here the
same config runs to 6 stages, and stages 4 and 5 are checked cell by cell
against the table in perfbench/reference.json, read from that file, so the
benchmark and the tests share one table.  The steps and Picard sweeps per
stage are pinned exactly.  The run's ledger.json, direct.json and the
`verify all` report are compared leaf by leaf with the full-precision
copies in tests/golden.
"""

import csv
import json
import re
from pathlib import Path

import pytest

from quenchstage.cli import main

ROOT = Path(__file__).resolve().parents[1]
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())
GOLDEN = ROOT / "tests" / "golden"
TABLES = ("stages.csv", "feedback.csv", "transitions.csv")
RTOL = 1e-6


def run_config(tmp_path, max_stages):
    """Run configs/stagewise.cfg with max_stages replaced through the CLI;
    the three tables as rows of numbers, and the ledger."""
    text = (ROOT / "configs" / "stagewise.cfg").read_text()
    text, count = re.subn(
        r"(?m)^max_stages\s*=.*$", f"max_stages = {max_stages}", text
    )
    assert count == 1
    tmp_path.mkdir(exist_ok=True)
    cfg = tmp_path / "stagewise.cfg"
    cfg.write_text(text)
    out = tmp_path / "out"
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("QUENCHSTAGE_OUT", str(out))
        assert main(["stagewise", "--config", str(cfg)]) == 0
    tables = {}
    for name in TABLES:
        with open(out / name, newline="") as handle:
            rows = list(csv.reader(handle))[1:]
        tables[name] = [[float(cell) for cell in row] for row in rows]
    return tables, json.loads((out / "ledger.json").read_text())


@pytest.fixture(scope="module")
def deep(tmp_path_factory):
    return run_config(tmp_path_factory.mktemp("deep"), 6)


def stage_rows(name, rows):
    """The rows of a table that belong to stages 4 and 5: a stage's own row,
    or the switch into it."""
    column = 1 if name == "transitions.csv" else 0
    return [row for row in rows if row[column] in (4, 5)]


@pytest.mark.parametrize("name", TABLES)
def test_deep_stage_rows_match_reference(deep, name):
    tables, _ = deep
    got = stage_rows(name, tables[name])
    want = stage_rows(name, REFERENCE["stagewise-deep"][name])
    assert len(got) == len(want) == 2
    for row, ref in zip(got, want):
        assert len(row) == len(ref)
        for col, (g, w) in enumerate(zip(row, ref)):
            assert abs(g - w) <= RTOL * abs(w), f"{name} stage {ref[0]} col {col}"


def test_deep_grids_and_steps_per_stage(deep):
    tables, ledger = deep
    assert [row[2] for row in tables["stages.csv"]] == [9, 18, 36, 72, 144, 288]
    assert [s["steps"] for s in ledger["stages"]] == [139, 129, 182, 165, 149, 136]
    # the degree-6 source seed's solves: 956 in all
    sweeps = [s["picard_sweeps"] for s in ledger["stages"]]
    assert sweeps == [155, 139, 190, 173, 156, 143]


def leaves(value, key=()):
    """The leaves of a parsed JSON document, keyed by their path."""
    if isinstance(value, (dict, list)):
        items = value.items() if isinstance(value, dict) else enumerate(value)
        for name, item in items:
            yield from leaves(item, (*key, name))
    else:
        yield key, value


@pytest.mark.parametrize("name", ["ledger.json", "direct.json", "verify_all.json"])
def test_outputs_match_the_golden_files(deep, name, tmp_path, monkeypatch, capsys):
    # the 6-stage ledger is the deep run's; floats agree to 1e-11 relative,
    # as across BLAS kernels, and to 1e-15 absolute where they are round-off
    # by construction (tests/golden/README.md)
    if name == "ledger.json":
        got = deep[1]
    elif name == "direct.json":
        monkeypatch.setenv("QUENCHSTAGE_OUT", str(tmp_path))
        assert main(["direct", "--config", str(ROOT / "configs" / "direct.cfg")]) == 0
        got = json.loads((tmp_path / name).read_text())
    else:
        assert main(["verify", "all"]) == 0
        got = json.loads(capsys.readouterr().out)
    got = dict(leaves(got))
    want = dict(leaves(json.loads((GOLDEN / name).read_text())))
    assert got.keys() == want.keys()
    for key, w in want.items():
        g = got[key]
        assert type(g) is type(w), key
        if isinstance(w, float):
            assert abs(g - w) <= max(1e-11 * max(abs(g), abs(w)), 1e-15), (key, g, w)
        else:
            assert g == w, key
