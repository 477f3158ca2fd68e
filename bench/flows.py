"""Seeded gravity-shaped bilateral trade flows for the benchmark workloads.

``flow[k, j, s]`` is the value in US dollars of good ``s`` exported from
country ``k`` to country ``j``:

    gdp_k * gdp_j / dist_kj * spec_ks * taste_js * size_s * noise

scaled to a fixed world total, rounded to whole dollars, with zero
self-flows. Values stay in currency units: nothing is rescaled.

A panel is one world observed over several years, as the G20 panel is: its
fundamentals (GDP, positions, specialisation, tastes, product sizes) come
from the panel's index alone, and the seed draws every year's lognormal flow
noise. Solve cost moves by a factor of ten under that noise, so a run's
medians still vary with the seed, but they rest on the same worlds and not
on which few dozen random worlds a run happened to draw.

Panel ``index`` takes its fundamentals from ``default_rng([WORLDS, index])``
and its noise from ``default_rng([seed, index])``, so the same seed gives the
same inputs. Every CSV gets a sibling ``.npz`` with the cost matrices ``C``
(imports) and ``B`` (exports) that the benchmark checks outputs against; the
program under test only ever reads the CSV.

    python3 bench/flows.py KIND SEED COUNT OUT_DIR
"""

from __future__ import annotations

import sys
from pathlib import Path

import numpy as np

# kind -> (goods, countries, years, world total in USD, cut)
# "structure" panels are G20-shaped panels cut to their first goods and
# countries, which keeps the combinatorial consistency calls repeatable.
SPECS = {
    "g20-panel": (14, 20, 4, 1.2e13, None),
    "structure": (14, 20, 4, 1.2e13, (6, 9)),
}
FIRST_YEAR = 2016
WORLDS = 2112  # seeds the fundamentals; the run's seed only draws noise
NOISE = 0.25  # sigma of the lognormal noise on each flow and year


def gravity_world(rng, goods, countries, total):
    """Expected flows of shape (countries, countries, goods), summing to ``total``."""
    m, n = countries, goods
    gdp = np.exp(rng.normal(0.0, 1.2, m))
    pos = rng.uniform(0.0, 2.0e4, (m, 2))  # km
    dist = np.sqrt(((pos[:, None, :] - pos[None, :, :]) ** 2).sum(axis=2)) + 500.0
    spec = np.exp(rng.normal(0.0, 1.0, (m, n)))
    taste = np.exp(rng.normal(0.0, 0.7, (m, n)))
    size = np.exp(rng.normal(0.0, 1.0, n))
    base = (gdp[:, None, None] * gdp[None, :, None] / dist[:, :, None]
            * spec[:, None, :] * taste[None, :, :] * size[None, None, :])
    diag = np.arange(m)
    base[diag, diag, :] = 0.0
    return base * (total / base.sum())


def observe(rng, base):
    """One year's flows: ``base`` with lognormal noise, in whole dollars."""
    value = base * np.exp(rng.normal(0.0, NOISE, base.shape))
    return np.where(base > 0, np.maximum(1.0, np.rint(value)), 0.0)


def write_panel(path, flows, countries, goods):
    """Write one flow CSV and its ``.npz`` cost matrices; return the row count."""
    rows = 0
    with open(path, "w", encoding="utf-8", newline="") as handle:
        handle.write("year,reporter,partner,product,value\n")
        for t, flow in enumerate(flows):
            k, j, s = np.nonzero(flow)
            values = flow[k, j, s].astype(np.int64)
            year = FIRST_YEAR + t
            handle.write("".join(
                f"{year},{countries[a]},{countries[b]},{goods[c]},{v}\n"
                for a, b, c, v in zip(k.tolist(), j.tolist(), s.tolist(),
                                      values.tolist())
            ))
            rows += len(values)
    np.savez(
        Path(path).with_suffix(".npz"),
        C=flows.sum(axis=1).transpose(0, 2, 1),  # (years, goods, countries)
        B=flows.sum(axis=2).transpose(0, 2, 1),
        countries=np.array(countries),
        goods=np.array(goods),
        years=np.arange(FIRST_YEAR, FIRST_YEAR + len(flows)),
        rows=rows,
    )
    return rows


def write_inputs(kind, seed, count, out_dir):
    """Write ``count`` panels of workload ``kind``; return their CSV paths."""
    goods, countries, years, total, cut = SPECS[kind]
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = []
    for index in range(count):
        base = gravity_world(np.random.default_rng([WORLDS, index]), goods, countries, total)
        noise = np.random.default_rng([seed, index])
        flows = np.stack([observe(noise, base) for _ in range(years)])
        if cut is not None:
            goods_cut, countries_cut = cut
            flows = flows[:, :countries_cut, :countries_cut, :goods_cut]
        m, n = flows.shape[1], flows.shape[3]
        path = out_dir / f"panel_{index:03d}.csv"
        write_panel(path, flows, [f"C{k + 1:03d}" for k in range(m)],
                    [f"{s + 1:02d}" for s in range(n)])
        paths.append(path)
    return paths


if __name__ == "__main__":
    if len(sys.argv) != 5 or sys.argv[1] not in SPECS:
        sys.exit(f"usage: flows.py {{{','.join(SPECS)}}} SEED COUNT OUT_DIR")
    write_inputs(sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4])
