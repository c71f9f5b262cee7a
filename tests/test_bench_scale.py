"""``bench/scale.py --against``: the pair order and the win counts, with
the child process that measures one N replaced by a stub."""

import importlib.util
from pathlib import Path

SCALE_PATH = Path(__file__).resolve().parents[1] / "bench" / "scale.py"


def _load_scale():
    spec = importlib.util.spec_from_file_location("bench_scale", SCALE_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_against_alternates_pairs_and_counts_the_changes_wins(tmp_path, monkeypatch):
    scale = _load_scale()
    parent, change = tmp_path / "parent", tmp_path / "change"
    calls = []

    def stub_point(root, n):
        calls.append((root.name, n))
        j = sum(1 for name, m in calls if name == root.name and m == n)
        if root == parent:
            return {"n": n, "epoch_ms": 100.0, "infer_ms": 50.0, "split_ms": {"sampler": 9.0}}
        # the change: faster in every epoch, a tie in the first pair's
        # inference, and a slower sampler in the third pair
        return {"n": n, "epoch_ms": 90.0, "infer_ms": 50.0 if j == 1 else 40.0,
                "split_ms": {"sampler": 10.0 if j == 3 else 8.0}}

    monkeypatch.setattr(scale, "_point", stub_point)
    monkeypatch.setattr(scale, "SIZES", (30, 60))
    monkeypatch.setattr(scale, "PAIRS", 3)
    result = scale.against_row(change, parent)

    order = ["parent", "change", "change", "parent", "parent", "change"]
    assert calls == [(name, n) for n in (30, 60) for name in order]
    assert result["pairs"] == 3 and "against" in result
    for point, n in zip(result["points"], (30, 60)):
        assert point["n"] == n
        assert [pair["first"] for pair in point["pairs"]] == ["parent", "change", "parent"]
        assert all(pair["parent"]["epoch_ms"] == 100.0 for pair in point["pairs"])
        assert point["wins"] == {"epoch_ms": 3, "infer_ms": 2, "split_ms.sampler": 2}
