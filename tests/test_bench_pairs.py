"""The verdicts of ``tools/bench_pairs.py`` on fixed samples.

Only the pure functions are checked: no benchmark process is started.
"""

import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
_SPEC = importlib.util.spec_from_file_location(
    "bench_pairs", ROOT / "tools" / "bench_pairs.py")
bench_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)

# Ten parent runs: median 1.0, quartiles 0.9825 and 1.0175.
PARENT = [0.95, 0.97, 0.98, 0.99, 1.00, 1.00, 1.01, 1.02, 1.03, 1.05]


def _shifted(values, delta):
    return [v + delta for v in values]


def test_quartiles():
    assert bench_pairs.quartiles(PARENT) == pytest.approx((0.9825, 1.0,
                                                           1.0175))


@pytest.mark.parametrize("change, bound, expected", [
    # Every pair won, the median 0.1 better: more than the 0.035 spread.
    (_shifted(PARENT, -0.1), 0.25, "gain"),
    # Nine of ten pairs won is still a gain.
    (_shifted(PARENT, -0.1)[:9] + [1.2], 0.25, "gain"),
    # Eight of ten pairs won is not, however large the median's lead.
    (_shifted(PARENT, -0.1)[:8] + [1.2, 1.2], 0.25, "same"),
    # Every pair won, but by less than the parent's spread.
    (_shifted(PARENT, -0.01), 0.25, "same"),
    (PARENT, 0.25, "same"),
    # Worse by 0.1 against a bound of 0.05 of the parent's median.
    (_shifted(PARENT, 0.1), 0.05, "regression"),
    (_shifted(PARENT, 0.04), 0.05, "same"),
    # The parent's spread, 0.035, is wider than a 0.01 bound.
    (_shifted(PARENT, 0.005), 0.01, "unresolved"),
])
def test_verdict_lower_is_better(change, bound, expected):
    assert bench_pairs.verdict(PARENT, change, bound, "lower") == expected


@pytest.mark.parametrize("change, expected", [
    (_shifted(PARENT, 0.1), "gain"),
    (_shifted(PARENT, -0.1), "regression"),
    (PARENT, "same"),
])
def test_verdict_higher_is_better(change, expected):
    assert bench_pairs.verdict(PARENT, change, 0.05, "higher") == expected


def test_every_run_better_is_not_unresolved():
    """A parent spread wider than the bound leaves the verdict open unless
    every change run beats every parent run. Here the medians differ by
    less than the spread, so that is not a gain either."""
    parent = [1.0, 2.0] * 5
    change = [0.99, 0.5] * 5
    assert bench_pairs.wins(parent, change, "lower") == 10
    assert bench_pairs.verdict(parent, change, 0.01, "lower") == "same"
    change = [0.99, 2.0] * 5  # ties count for neither side
    assert bench_pairs.wins(parent, change, "lower") == 5
    assert bench_pairs.verdict(parent, change, 0.01, "lower") == "unresolved"


def test_same_benchmark(tmp_path):
    trees = []
    for name in ("parent", "change"):
        tree = tmp_path / name
        (tree / "perfbench" / "__pycache__").mkdir(parents=True)
        (tree / "BENCHMARK.json").write_text("{}")
        (tree / "perfbench" / "run.py").write_text("print()")
        (tree / "perfbench" / "__pycache__" / "run.pyc").write_text(name)
        trees.append(tree)
    assert bench_pairs.same_benchmark(*trees)
    (trees[1] / "perfbench" / "run.py").write_text("print(1)")
    assert not bench_pairs.same_benchmark(*trees)
    (trees[1] / "perfbench" / "run.py").write_text("print()")
    (trees[1] / "BENCHMARK.json").write_text("{ }")
    assert not bench_pairs.same_benchmark(*trees)
    (trees[1] / "BENCHMARK.json").unlink()
    assert not bench_pairs.same_benchmark(*trees)
