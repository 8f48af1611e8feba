"""Scripts beside the package: what ``tools/compare_outputs.py`` counts as
a float move and reports of a CSV, and that the benchmark's span table
wraps and restores."""
from __future__ import annotations

import importlib
import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).parents[1]


def load_script(path: Path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_diff_separates_float_moves_from_behaviour():
    # a float that moved is a relative change under its key; an integer,
    # a boolean, null against a number and a key set are behaviour
    json_diff = load_script(ROOT / "tools" / "compare_outputs.py").json_diff
    a = [{"c0": 1.2, "ring_mass": [0.25, 0.5], "iters": 12,
          "converged": True, "lambda": None}]
    b = [{"c0": 1.2, "ring_mass": [0.25, 0.5 * (1 + 4e-15)], "iters": 12,
          "converged": True, "lambda": None}]
    floats, other = {}, []
    json_diff(a, b, "lut.json", floats, other)
    assert other == [] and set(floats) == {"ring_mass"}
    assert 3e-15 < floats["ring_mass"] < 5e-15
    for key, value in (("iters", 13), ("converged", False),
                       ("lambda", 0.5), ("c0", 1)):
        changed = [dict(a[0], **{key: value})]
        floats, other = {}, []
        json_diff(a, changed, "lut.json", floats, other)
        assert len(other) == 1 and other[0].startswith(f"{key}:"), other
    floats, other = {}, []
    json_diff({"x": 1.0}, {"x": 1.0, "y": 2.0}, "f.json", floats, other)
    assert len(other) == 1 and "keys" in other[0]


def test_csv_diff_reports_columns_header_and_rows(tmp_path):
    # a CSV whose bytes differ was reported only as "bytes differ"; it
    # still counts as a difference in behaviour
    tool = load_script(ROOT / "tools" / "compare_outputs.py")
    a = "c0,air,pd\n1,3.5,0.25\n1.2,3.75,0.5\n"
    b = "c0,air,pd\n1,3.5,0.25\n1.2,3.7125,0.5\n"
    assert tool.csv_diff(a, b) == [
        "worst relative change per column: air 0.01"]
    assert tool.csv_diff(a, a) == []
    found = tool.csv_diff(a, "c0,air,mass_0\n1,3.5,1\n")
    assert found[0] == "header 'c0,air,pd' != 'c0,air,mass_0'"
    assert found[1] == "2 rows != 1"
    assert found[2:] == []
    for side, text in (("a", a), ("b", b)):
        (tmp_path / side).mkdir()
        (tmp_path / side / "tradeoff.csv").write_text(text)
    floats, other = {}, []
    assert tool.compare_files(str(tmp_path / "a"), str(tmp_path / "b"),
                              floats, other, "run") == 1
    assert floats == {}
    assert other == ["run tradeoff.csv: bytes differ; worst relative change "
                     "per column: air 0.01"]


def test_span_table_wraps_every_name_and_restores_it():
    # else a traced name deleted from the package fails only a traced
    # benchmark run, with an AttributeError from install
    spans = load_script(ROOT / "perfbench" / "spans.py")
    traced = [row[1:3] for row in spans.SPANS + spans.COUNTERS]
    originals = [getattr(importlib.import_module(m), f) for m, f in traced]
    owners = [mod for name, mod in sys.modules.items()
              if name.split(".")[0] == "ofdmpcs"]
    owners.append(sys.modules["ofdmpcs.constellation"].Distribution)
    before = [dict(vars(owner)) for owner in owners]
    tracer = spans.Tracer()
    try:
        spans.install(tracer)
        assert all(getattr(sys.modules[m], f) is not fn
                   for (m, f), fn in zip(traced, originals))
    finally:
        tracer.uninstall()
    for owner, old in zip(owners, before):
        assert all(old.get(k) is v for k, v in vars(owner).items()), owner
