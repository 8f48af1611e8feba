"""The output comparison script in ``tools/``: what counts as a float move."""
from __future__ import annotations

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).parents[1] / "tools" / "compare_outputs.py"


def load_script():
    spec = importlib.util.spec_from_file_location("compare_outputs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_json_diff_separates_float_moves_from_behaviour():
    # a float that moved is a relative change under its key; an integer,
    # a boolean, null against a number and a key set are behaviour
    json_diff = load_script().json_diff
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
