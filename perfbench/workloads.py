"""Workload table and the seeded planted-group input generator.

Every workload is a batch of one or more multiplexes.  Each multiplex has a
fixed *template*, drawn from a generator keyed by the workload's shape and
the item's index: planted groups, per-layer group profiles, noise and the
pattern of zero cells.  The run's ``--seed`` then draws what changes from run
to run: a +/-2 % multiplicative jitter of every nonzero abundance, the entity
ids (and so the order of matrix rows after the program sorts them), and the
order of rows in each CSV.

Why a template: with the noise itself drawn from the seed, the number of
Riemannian iterations at n = 160 moved between 84 and 123 over twelve seeds
(and SNF between 29 and 67), which spreads ``run_s`` far wider than any
useful regression bound.  With the template and a 2 % jitter, seeds 1-6 gave
101-104 Riemannian iterations and 43-44 SNF iterations.  The seed still
changes every input byte, so no run can reuse another seed's results.

Like ``scripts/make_synthetic_fixture.py``, each entity's layer profile is
0.75 x its group's profile plus 0.25 x uniform noise, with about 10 % of the
cells zeroed; unlike it, no entity is absent, so the filter keeps every row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

LAYERS = 9
SITES = 20
ZERO_FRAC = 0.1
JITTER = 0.02
TEMPLATE_KEY = 20231103


@dataclass(frozen=True)
class Workload:
    name: str
    n: int
    groups: int
    items: int
    methods: tuple[str, ...] | None  # None: the config's default, every method
    via_cli: bool
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "fuse-all-n160", 160, 2, 1, None, False,
            "default run path with all four methods; time is mostly metric-barycenter "
            "solver work (Riemannian eigh loop), then writers",
        ),
        Workload(
            "snf-n400", 400, 4, 1, ("snf",), False,
            "SNF only at n=400: no barycenter calls; dcor n^3 temporaries, cross "
            "diffusion and n^2 writers dominate time and peak memory",
        ),
        Workload(
            "cli-batch-n24", 24, 3, 12, None, True,
            "12 distinct n=24 multiplexes through cli.main: per-call overhead (config "
            "and CSV parsing, validation, sym_eigen sign loop, writers)",
        ),
    )
}


@dataclass(frozen=True)
class Item:
    """One generated multiplex: its config, output dir and planted groups."""

    config: Path
    output_dir: Path
    planted: dict[str, int]  # entity id -> planted group


def _template(n: int, groups: int, index: int):
    rng = np.random.default_rng([TEMPLATE_KEY, n, groups, index])
    labels = np.arange(n) % groups
    rng.shuffle(labels)
    layers = []
    for _ in range(LAYERS):
        base = rng.uniform(0.05, 1.0, (groups, SITES))
        values = 0.75 * base[labels] + 0.25 * rng.uniform(0.0, 1.0, (n, SITES))
        values[rng.random((n, SITES)) < ZERO_FRAC] = 0.0
        # keep at least one positive measurement per entity
        empty = np.flatnonzero(~(values > 0).any(axis=1))
        values[empty, rng.integers(0, SITES, empty.size)] = rng.uniform(0.1, 1.0, empty.size)
        layers.append(values)
    return labels, layers


def write_item(root: Path, wl: Workload, index: int, seed: int) -> Item:
    """Write the CSVs and config of item ``index`` of ``wl`` under ``root``."""
    labels, layers = _template(wl.n, wl.groups, index)
    rng = np.random.default_rng([seed, index])
    ids = [f"e{k:04d}" for k in rng.permutation(wl.n)]
    inputs = root / "in"
    inputs.mkdir(parents=True, exist_ok=True)
    names = []
    header = "entity," + ",".join(f"s{j:02d}" for j in range(1, SITES + 1))
    for l, values in enumerate(layers, start=1):
        values = values * (1.0 + JITTER * rng.uniform(-1.0, 1.0, values.shape))
        lines = [header]
        for row in rng.permutation(wl.n):
            lines.append(ids[row] + "," + ",".join(f"{v:.6f}" for v in values[row]))
        name = f"layer{l:02d}.csv"
        (inputs / name).write_text("\n".join(lines) + "\n")
        names.append(f"in/{name}")
    config = {"inputs": names, "output_dir": "out"}
    if wl.methods is not None:
        config["methods"] = list(wl.methods)
    (root / "config.json").write_text(json.dumps(config, indent=2) + "\n")
    planted = {ids[i]: int(g) for i, g in enumerate(labels)}
    return Item(root / "config.json", root / "out", planted)


def write_inputs(root: Path, wl: Workload, seed: int) -> list[Item]:
    """Write every item of ``wl`` for ``seed``; the program reads only these files."""
    return [write_item(root / f"item{j:02d}", wl, j, seed) for j in range(wl.items)]
