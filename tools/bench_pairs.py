"""Compare two source trees on the benchmark, in alternating pairs of runs.

Usage: ``python3 tools/bench_pairs.py PARENT_TREE CHANGE_TREE [--pairs 10]
[--seed0 101] [--seconds S]``

Each tree is a checkout holding ``BENCHMARK.json``, ``perfbench/`` and
``src/``. Trees whose ``BENCHMARK.json`` or ``perfbench/`` differ are
refused (exit 2): the two sides must run the same benchmark. Pair ``i``
runs ``perfbench/run.py --workload all --seed SEED0+i --seconds S --trace
0`` once in each tree, the parent first in even pairs and the change first
in odd ones; ``--seconds`` defaults to ``run_seconds`` of
``BENCHMARK.json``. Each run's end-to-end metrics are printed as it ends.

Then, per workload and end-to-end metric, it prints each side's median and
quartiles, the pairs the change won (ties count for neither side) and one
verdict (see :func:`verdict`): ``gain``, ``regression``, ``unresolved`` or
``same``. It exits 1 when any run reports ``correct: false``.

A verdict on ``peak_rss_mb`` or ``setup_peak_rss_mb`` needs a control run.
glibc's dynamic mmap threshold moves where memory lands when unrelated
allocations change, and that alone can shift a peak by a fraction of a MB
in nine pairs of ten. So run the tool a second time with
``MALLOC_MMAP_THRESHOLD_=131072`` exported, which ``perfbench/run.py``
passes on to every child in both trees. Only an RSS ``gain`` or
``regression`` that the control run shows as well is read as real.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of ``values``."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent, change, better: str) -> int:
    """The pairs whose change value is strictly better than the parent's."""
    sign = 1 if better == "lower" else -1
    return sum(sign * (p - c) > 0 for p, c in zip(parent, change))


def verdict(parent, change, bound: float, better: str) -> str:
    """The verdict on one metric, from the paired runs of both sides.

    ``bound`` is the metric's relative bound from ``BENCHMARK.json`` and
    ``better`` its direction (``"lower"`` or ``"higher"``). In this order:

    - ``gain``: the change wins at least nine tenths of the pairs, and its
      median is better than the parent's by more than the distance between
      the parent's quartiles;
    - ``regression``: the change's median is worse than the parent's by
      more than ``bound`` times the parent's median;
    - ``unresolved``: the parent's quartiles lie further apart than that,
      and not every change run is better than every parent run;
    - ``same``: none of these.
    """
    if better == "higher":  # negated, every metric is lower-is-better
        parent, change = [-v for v in parent], [-v for v in change]
    p1, p_median, p3 = quartiles(parent)
    c_median = quartiles(change)[1]
    allowed = bound * abs(p_median)
    if (10 * wins(parent, change, "lower") >= 9 * len(parent)
            and p_median - c_median > p3 - p1):
        return "gain"
    if c_median - p_median > allowed:
        return "regression"
    if p3 - p1 > allowed and not max(change) < min(parent):
        return "unresolved"
    return "same"


def same_benchmark(parent: Path, change: Path) -> bool:
    """Whether both trees hold the same ``BENCHMARK.json`` and
    ``perfbench/`` files; compiled bytecode is not compared."""

    def files(tree: Path) -> dict[Path, bytes]:
        paths = [tree / "BENCHMARK.json", *(tree / "perfbench").rglob("*")]
        return {path.relative_to(tree): path.read_bytes() for path in paths
                if path.is_file() and "__pycache__" not in path.parts}

    return files(parent) == files(change)


def run_benchmark(tree: Path, seed: int, seconds: float) -> dict:
    """The last output line of one ``perfbench/run.py --workload all`` run
    in ``tree``, as JSON: per workload, ``correct`` and ``metrics``."""
    argv = [sys.executable, "perfbench/run.py", "--workload", "all", "--seed",
            str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.exit(f"error: {' '.join(argv)} in {tree} exited "
                 f"{done.returncode}:\n{done.stderr}")
    return json.loads(lines[-1])


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed0", type=int, default=101)
    parser.add_argument("--seconds", type=float)
    args = parser.parse_args()
    if args.pairs < 2:
        parser.error("--pairs must be at least 2, to give quartiles")
    if not same_benchmark(args.parent, args.change):
        print("error: the trees' BENCHMARK.json or perfbench/ differ",
              file=sys.stderr)
        return 2
    bench = json.loads((args.parent / "BENCHMARK.json").read_text())
    seconds = args.seconds or bench["run_seconds"]
    sides = {"parent": args.parent, "change": args.change}
    samples = {side: [] for side in sides}
    correct = True
    for i in range(args.pairs):
        seed = args.seed0 + i
        order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
        for side in order:
            result = run_benchmark(sides[side], seed, seconds)
            samples[side].append(result)
            for name, workload in result.items():
                correct &= workload["correct"]
                metrics = " ".join(f"{metric} {m['value']:.6g}"
                                   for metric, m in workload["metrics"].items())
                print(f"pair {i} seed {seed} {side} {name}: correct "
                      f"{workload['correct']}, {metrics}", flush=True)
    print(f"{'workload':<12} {'metric':<18} {'parent median [q1, q3]':<30} "
          f"{'change median [q1, q3]':<30} {'wins':<6} verdict")
    for workload in bench["workloads"]:
        for metric in bench["end_to_end"]:
            values = {side: [run[workload["name"]]["metrics"][metric["name"]]
                             ["value"] for run in runs]
                      for side, runs in samples.items()}
            cells = []
            for side in sides:
                q1, median, q3 = quartiles(values[side])
                cells.append(f"{median:.6g} [{q1:.6g}, {q3:.6g}]")
            won = wins(values["parent"], values["change"], metric["better"])
            print(f"{workload['name']:<12} {metric['name']:<18} "
                  f"{cells[0]:<30} {cells[1]:<30} {won}/{args.pairs:<4} "
                  + verdict(values["parent"], values["change"],
                            metric["bound"], metric["better"]))
    if not correct:
        print("error: some run reported correct: false", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
