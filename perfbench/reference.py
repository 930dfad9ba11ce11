"""Recompute a city's report percentages from ``corpus.csv`` alone.

This is the benchmark's independent reference: it imports nothing from
``chartflow`` and follows the definitions in the project README. Counts
become unit-norm city rows per week, consecutive weeks exactly seven days
apart are differenced into velocities, and a city's samples are the
(artist, week) pairs where the artist is on the city's chart at either end
of that week's velocity and the city has a defined velocity at that week
and at each of the previous ``lags`` weeks. Undefined lagged velocities of
other cities enter as zero. The first two-thirds of the velocity week span
trains, the rest tests, and each model is scored as its test RMSE in
percent of the zero-change predictor's.

Usage: ``python3 reference.py CORPUS.csv SOLVER INCLUDED CITY...`` prints
``{"boundary": ..., "percents": {city: [self_pct, all_pct]}}`` as JSON;
INCLUDED is the comma-separated city list of the all-history model.
"""

from __future__ import annotations

import csv
import json
import sys
from datetime import date, timedelta

import numpy as np
from scipy.optimize import nnls


class Corpus:
    """Dense unit rows and velocities of a chart corpus."""

    def __init__(self, path):
        entries = []
        with open(path, newline="", encoding="utf-8") as handle:
            reader = csv.reader(handle)
            next(reader)
            for week, city, artist, listeners in reader:
                if int(listeners) > 0:
                    entries.append((date.fromisoformat(week), city, artist,
                                    float(listeners)))
        self.weeks = sorted({e[0] for e in entries})
        self.cities = sorted({e[1] for e in entries})
        artists = sorted({e[2] for e in entries})
        w_of = {w: i for i, w in enumerate(self.weeks)}
        c_of = {c: i for i, c in enumerate(self.cities)}
        a_of = {a: i for i, a in enumerate(artists)}
        counts = np.zeros((len(self.weeks), len(self.cities), len(artists)))
        for week, city, artist, listeners in entries:
            counts[w_of[week], c_of[city], a_of[artist]] = listeners
        norms = np.sqrt((counts ** 2).sum(axis=2, keepdims=True))
        unit = np.divide(counts, norms, out=np.zeros_like(counts),
                         where=norms > 0)
        charted = counts > 0
        present = charted.any(axis=2)
        # Velocity k spans weeks[k] -> weeks[k + 1].
        self.vel_weeks = self.weeks[1:]
        step = np.array([(b - a).days == 7
                         for a, b in zip(self.weeks, self.weeks[1:])])
        self.defined = present[1:] & present[:-1] & step[:, None]
        self.velocity = (unit[1:] - unit[:-1]) * self.defined[:, :, None]
        self.support = charted[1:] | charted[:-1]

    def boundary(self) -> date:
        """First test week: two-thirds into the velocity span, in whole days."""
        span = (self.vel_weeks[-1] - self.vel_weeks[0]).days + 7
        return self.vel_weeks[0] + timedelta(days=span * 2 // 3)

    def design(self, target: str, columns: list[str], lags: int):
        """Stacked (x, y, is_train) for ``target`` with ``columns`` lagged."""
        t = self.cities.index(target)
        cols = [self.cities.index(c) for c in columns]
        k_of = {w: k for k, w in enumerate(self.vel_weeks)}
        boundary = self.boundary()
        xs, ys, train = [], [], []
        for k, week in enumerate(self.vel_weeks):
            back = [k_of.get(week - timedelta(days=7 * lag))
                    for lag in range(1, lags + 1)]
            if not self.defined[k, t] or any(
                j is None or not self.defined[j, t] for j in back
            ):
                continue
            active = np.flatnonzero(self.support[k, t])
            # Column order: city by city, lags ascending within a city.
            xs.append(np.stack([self.velocity[j, c, active]
                                for c in cols for j in back], axis=1))
            ys.append(self.velocity[k, t, active])
            train.append(np.full(active.size, week < boundary))
        return np.vstack(xs), np.concatenate(ys), np.concatenate(train)


def percent_of_baseline(corpus: Corpus, target: str, columns: list[str],
                        solver: str, lags: int = 8) -> float:
    x, y, train = corpus.design(target, columns, lags)
    if solver == "nnls":
        beta, _ = nnls(x[train], y[train], maxiter=50 * x.shape[1])
    else:
        beta = np.linalg.lstsq(x[train], y[train], rcond=None)[0]
    test_x, test_y = x[~train], y[~train]
    model = np.sqrt(np.mean((test_x @ beta - test_y) ** 2))
    return 100.0 * model / np.sqrt(np.mean(test_y ** 2))


def city_percents(corpus: Corpus, target: str, included: list[str],
                  solver: str) -> tuple[float, float]:
    """(self_history_pct, all_history_pct) for one city."""
    return (percent_of_baseline(corpus, target, [target], solver),
            percent_of_baseline(corpus, target, included, solver))


def main(argv: list[str]) -> int:
    corpus_csv, solver, included, *cities = argv
    corpus = Corpus(corpus_csv)
    percents = {city: city_percents(corpus, city, included.split(","), solver)
                for city in cities}
    print(json.dumps({"boundary": corpus.boundary().isoformat(),
                      "percents": percents}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
