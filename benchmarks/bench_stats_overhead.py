"""Statistics-catalog overhead shootout: what each catalog costs a rank.

The paper's pitch is that in-transit statistics are cheap relative to
the simulations producing the data; this bench quantifies what each
catalog entry adds to a server rank.  Every catalog runs through the
rank path a study uses — ``ServerRank.handle`` folding whole-partition
group messages into the Sobol' engine and the ``StatisticsPipeline``,
then reading every result — so the "1 statistic" row (the default
``moments:order=2``, read from the engine's own A/B moments) reports
what the default really costs, against the Sobol'-only "none" baseline.
It also measures the counting-sketch quantile accuracy against exact
``np.quantile`` as bins grow, and emits machine-readable
``BENCH_stats.json`` plus a human table.
"""

import json
import time

import numpy as np

from repro.core import StudyConfig
from repro.core.server import MelissaServer
from repro.report import format_table
from repro.sampling import ParameterSpace, Uniform
from repro.stats import StatContext, StatisticsPipeline
from repro.transport.message import GroupFieldMessage

NCELLS = 20_000
NPARAMS = 6
NGROUPS = 32

CATALOGS = [
    ("none", []),
    ("1 statistic", ["moments:order=2"]),
    ("2 statistics", ["moments:order=2", "exceedance:thresholds=0.5"]),
    ("4 statistics", [
        "moments:order=4",
        "extrema",
        "exceedance:thresholds=0.5",
        "quantiles:qs=0.1+0.5+0.9:bins=64:lo=-5:hi=5",
    ]),
]


def _config(specs):
    space = ParameterSpace(
        names=tuple(f"x{i + 1}" for i in range(NPARAMS)),
        distributions=tuple(Uniform(0, 1) for _ in range(NPARAMS)),
    )
    return StudyConfig(
        space=space, ngroups=NGROUPS, ntimesteps=1, ncells=NCELLS,
        server_ranks=1, client_ranks=1, statistics=specs, fold_threads=1,
    )


def _time_catalog(specs, stream):
    """Seconds per group one rank pays for a catalog (best of 3 passes):
    every group handled, the last batch flushed, every result read."""
    config = _config(specs)
    best = float("inf")
    for _ in range(3):
        rank = MelissaServer(config).ranks[0]
        start = time.perf_counter()
        for g, buf in enumerate(stream):
            rank.handle(GroupFieldMessage(g, 0, 0, NCELLS, buf), 0.0)
        rank.sobol.flush()
        rank.stats.results()
        elapsed = (time.perf_counter() - start) / len(stream)
        best = min(best, elapsed)
    return best


def test_stats_overhead_shootout(results_dir):
    """Fold-throughput trajectory as the catalog grows, plus sketch
    accuracy; BENCH_stats.json records both."""
    stream = np.random.default_rng(2).normal(size=(NGROUPS, NPARAMS + 2, NCELLS))

    timings = {label: _time_catalog(specs, stream) for label, specs in CATALOGS}
    baseline = timings["none"]
    records = []
    for label, specs in CATALOGS:
        t = timings[label]
        records.append({
            "catalog": label,
            "specs": list(_config(specs).statistics),
            "ms_per_group_fold": round(t * 1e3, 4),
            "groups_per_s": round(1.0 / t, 1),
            "overhead_ms_vs_none": round((t - baseline) * 1e3, 4),
        })

    # counting-sketch quantile accuracy vs exact, as bins grow
    rng = np.random.default_rng(7)
    samples = rng.normal(size=8000)
    qs = (0.1, 0.5, 0.9)
    accuracy = []
    for bins in (32, 64, 256):
        lo, hi = -5.0, 5.0
        sketch = StatisticsPipeline(
            [f"quantiles:qs=0.1+0.5+0.9:bins={bins}:lo={lo}:hi={hi}"],
            StatContext(shape=(), nparams=NPARAMS), 1,
        )
        inst = sketch.instances_at(0)[0]
        for x in samples:
            inst.update(np.asarray(x))
        out = inst.finalize()
        err = max(
            abs(float(out[f"quantile_{q:g}"]) - float(np.quantile(samples, q)))
            for q in qs
        )
        width = (hi - lo) / bins
        accuracy.append({
            "bins": bins,
            "bin_width": round(width, 5),
            "max_abs_error": round(err, 5),
        })
        assert err <= 2 * width, (
            f"sketch error {err:.4f} exceeds two bin widths at {bins} bins"
        )

    payload = {
        "experiment": "stats_overhead",
        "ncells": NCELLS,
        "nparams": NPARAMS,
        "ngroups_per_pass": NGROUPS,
        "fold_overhead": records,
        "quantile_accuracy": accuracy,
    }
    (results_dir / "BENCH_stats.json").write_text(
        json.dumps(payload, indent=2) + "\n"
    )

    table = format_table(
        ["catalog", "ms / group-fold", "groups/s", "overhead ms"],
        [[r["catalog"], r["ms_per_group_fold"], r["groups_per_s"],
          r["overhead_ms_vs_none"]] for r in records],
        title=f"statistics catalog cost per group on one rank, p={NPARAMS}, "
              f"{NCELLS} cells",
    )
    acc_table = format_table(
        ["bins", "bin width", "max |error|"],
        [[a["bins"], a["bin_width"], a["max_abs_error"]] for a in accuracy],
        title="counting-sketch quantiles vs exact np.quantile (8000 N(0,1) samples)",
    )
    (results_dir / "table_stats_overhead.txt").write_text(
        table + "\n\n" + acc_table + "\n"
    )
    print(table)
    print(acc_table)

    # sanity: the fold stays fast enough to be "in transit" — each extra
    # statistic costs milliseconds per group at 20k cells, not seconds
    assert all(r["ms_per_group_fold"] < 1000.0 for r in records)
