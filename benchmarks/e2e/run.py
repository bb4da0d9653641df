"""The reference end-to-end benchmark driver.

    python3 -m benchmarks.e2e --workload fabric_tcp --seed 3 --seconds 20 --trace 0

runs one workload: a reference/warm-up repeat (discarded), then five to
eight timed repeats — each a fresh interpreter, see ``repeat.py`` — inside
``--seconds`` seconds, and prints every end-to-end metric (``--trace 0``)
or every per-layer metric (``--trace 1``) as the median over the repeats,
then one JSON object on the last line.  ``--selfcheck`` runs the whole
benchmark twice, interleaved, and checks the two sets against the bounds
in ``BENCHMARK.json``.  ``README.md`` has the metric and workload tables.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

from .workloads import BY_NAME, WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BUILD = ROOT / ".bench_build" / "e2e"  # everything a run writes lives here

REPEAT_TIMEOUT_S = 60.0
#: at least five timed repeats whatever they cost; more, up to eight,
#: while ``--seconds`` lasts and their ``groups_per_s`` still disagree
MIN_REPEATS, MAX_REPEATS = 5, 8
SETTLED_REL_IQR = 0.04
#: the self-check: runs (seeds) per set and workload, and its artifact
SELFCHECK_RUNS = 10
BASELINE = HERE / "BASELINE.json"
#: ISSUE 13's rule for a bound: max(floor, 2 x set-to-set difference)
BOUND_FLOOR = {"groups_per_s": 0.05, "setup_s": 0.05, "peak_rss_mb": 0.02}

#: how the timed repeats of one run combine into the run's value.  A
#: peak is a maximum: the rank's high-water mark lands in one of two
#: modes 6 % apart depending on how full its inbox happened to get, and a
#: median of five flips between them where the maximum does not.
COMBINE = {"groups_per_s": statistics.median, "setup_s": statistics.median,
           "peak_rss_mb": max}


@functools.cache
def spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


# --------------------------------------------------------------------- #
# one repeat = one child interpreter
# --------------------------------------------------------------------- #
def child_env() -> Dict[str, str]:
    """The pinned execution environment of every repeat: no ``REPRO_*``
    variable reaches the program, native thread pools stay at one thread
    (nproc = 2 is shared by rank, worker and coordinator), and the kernel
    cache and temp files stay inside the checkout."""
    env = {k: v for k, v in os.environ.items() if not k.startswith("REPRO_")}
    env.update(
        PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT)]),
        PYTHONHASHSEED="0",
        XDG_CACHE_HOME=str(BUILD / "cache"),
        TMPDIR=str(BUILD / "tmp"),
        OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1",
    )
    return env


def _shm_segments() -> set:
    try:
        return {n for n in os.listdir("/dev/shm") if n.startswith("psm_")}
    except OSError:
        return set()


def run_repeat(workload: str, seed: int, scale: float, work_dir: Path,
               *extra: str) -> dict:
    """Spawn one repeat and return its JSON result.  A crash, a non-zero
    exit or the hard timeout comes back as ``{"error": ...}`` with the
    stderr tail — a hung rendezvous ends with a number, never hangs."""
    segments = _shm_segments()
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, "-m", "benchmarks.e2e.repeat",
         "--workload", workload, "--seed", str(seed), "--scale", repr(scale),
         "--work-dir", str(work_dir), "--spawned-at", repr(spawned_at), *extra],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE,
        stderr=subprocess.PIPE, text=True, start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=REPEAT_TIMEOUT_S)
        error = None if proc.returncode == 0 else f"exit code {proc.returncode}"
    except subprocess.TimeoutExpired:
        error = f"timed out after {REPEAT_TIMEOUT_S:.0f}s"
        out, err = "", ""
    finally:
        # the repeat's own session: take the forked rank and worker too
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass
        if proc.poll() is None:
            out, err = proc.communicate()
    if error is None:
        try:
            return json.loads(out.strip().splitlines()[-1])
        except (IndexError, ValueError):
            error = "no result line"
    # a killed study cannot clean up after itself: drop what it leaked
    for name in _shm_segments() - segments:
        try:
            os.unlink(os.path.join("/dev/shm", name))
        except OSError:
            pass
    for leaked in work_dir.glob("ckpt-*"):
        shutil.rmtree(leaked, ignore_errors=True)
    tail = "\n".join((err or "").strip().splitlines()[-12:])
    print(f"repeat failed ({error}) on {workload}:\n{tail}", file=sys.stderr)
    return {"error": error, "stderr_tail": tail}


# --------------------------------------------------------------------- #
# one workload, measured for `seconds`
# --------------------------------------------------------------------- #
def measure(workload: str, seed: int, seconds: float, trace: bool,
            scale: float = 1.0, repeats: Optional[int] = None,
            trace_file: Optional[Path] = None) -> dict:
    """Reference/warm-up, then ``MIN_REPEATS`` timed repeats, then more
    while ``seconds`` last and the relative IQR of ``groups_per_s`` is
    above ``SETTLED_REL_IQR`` (or exactly ``repeats``).  With ``trace``
    every timed repeat is traced and the run is about its per-layer
    metrics; the end-to-end values of such a run are computed but never
    reported."""
    w = BY_NAME[workload]
    work_dir = BUILD / workload
    shutil.rmtree(work_dir, ignore_errors=True)
    work_dir.mkdir(parents=True)
    (BUILD / "tmp").mkdir(exist_ok=True)
    load_start = os.getloadavg()[0]

    # discarded first repeat: builds the kernel, fills the page cache and
    # — where correctness is parity with the uninjected sequential run —
    # produces that reference; the two-pass workloads warm up small
    if w.reference == "sequential":
        warm = run_repeat(workload, seed, scale, work_dir, "--write-reference")
    else:
        warm = run_repeat(workload, seed, min(scale, 0.25), work_dir)
    if "error" in warm:
        raise SystemExit(f"warm-up repeat of {workload} failed: {warm['error']}")

    timed: List[dict] = []
    started = time.monotonic()
    longest = 0.0
    while len(timed) < (repeats or MAX_REPEATS):
        if repeats is None and len(timed) >= MIN_REPEATS and (
            time.monotonic() - started + longest > seconds
            or _settled([r["groups_per_s"] for r in timed if r.get("verified")])
        ):
            break
        t0 = time.monotonic()
        extra = ["--trace"] if trace else []
        if trace_file is not None and not timed:  # one Chrome trace per run
            extra += ["--trace-file", str(trace_file)]
        timed.append(run_repeat(workload, seed, scale, work_dir, *extra))
        longest = max(longest, time.monotonic() - t0)
    shutil.rmtree(work_dir, ignore_errors=True)

    ngroups = w.groups_at(scale)
    good = [r for r in timed if r.get("verified")]
    result = {
        "workload": workload, "seed": seed, "scale": scale, "ngroups": ngroups,
        "repeats": len(timed), "traced": trace,
        "attempted": ngroups * len(timed),
        "failed": ngroups * (len(timed) - len(good)),
        "closed_form_failures":
            closed_form_failures(w, scale, good) if trace else [],
        "kernel": warm["kernel"], "fold_threads": warm["fold_threads"],
        "nproc": nproc(), "load_1m": [load_start, os.getloadavg()[0]],
        "end_to_end": {}, "per_layer": {}, "layer_share": {},
    }
    if good:
        result["end_to_end"] = {
            name: summary([r[name] for r in good], combine)
            for name, combine in COMBINE.items()
        }
    if good and trace:
        result["per_layer"] = {
            name: summary([r["layers"][name] for r in good])
            for name in good[0]["layers"]
        }
        result["layer_share"] = {
            layer: statistics.median(
                r["layer_self_s"][layer] / (r["window_s"] * r["processes"])
                for r in good
            )
            for layer in good[0]["layer_self_s"]
        }
    return result


def rel_iqr(values: List[float]) -> float:
    """Distance between the first and third quartile as a share of the
    median (``statistics.quantiles(values, n=4)``, as the pipeline does)."""
    med = statistics.median(values)
    if len(values) < 2 or not med:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / abs(med)


def _settled(rates: List[float]) -> bool:
    return len(rates) >= MIN_REPEATS and rel_iqr(rates) <= SETTLED_REL_IQR


def summary(values: List[float], combine=statistics.median) -> dict:
    """The repeats' combined value (their median unless told otherwise)
    with their relative interquartile range."""
    return {"value": combine(values), "rel_iqr": rel_iqr(values),
            "n": len(values), "samples": values}


def closed_form_failures(w, scale: float, traced: List[dict]) -> List[str]:
    """Traced counts against what the workload's shape dictates: frames
    per (group, timestep) = client ranks, one ``save_rank`` per rank and
    checkpoint the runtime says it wrote, and exactly zero for a layer
    the workload bypasses."""
    failures = []
    groups = w.groups_at(scale)
    messages = groups * w.ntimesteps * w.client_ranks
    sequential = w.runtime == "sequential"
    expect = {
        "net.framing.frames_decoded": 0 if sequential else messages,
        "net.shm.write_calls": messages if w.transport == "shm" else 0,
        "core.checkpoint.restore_calls": w.restore_calls,
    }
    if sequential:
        expect.update(dict.fromkeys((
            "net.framing.pump_calls", "net.framing.encode_calls",
            "net.framing.send_calls", "net.channel.bytes_sent",
        ), 0))
    else:
        expect["transport.router.deliver_calls"] = 0
    if w.transport != "shm":
        expect.update({"net.shm.read_calls": 0, "net.shm.doorbells": 0})
    if not w.crashes:  # a crash replays groups: more calls, some discarded
        expect.update({
            "solver.advance_calls": groups * w.group_size * w.ntimesteps,
            "core.server.handle_calls": messages,
            "core.server.messages_discarded": 0,
        })
    for r in traced:
        expect["core.checkpoint.save_calls"] = (
            w.server_ranks * r["checkpoints_written"]
        )
        for name, want in expect.items():
            if r["layers"][name] != want:
                failures.append(
                    f"{w.name}: {name} = {r['layers'][name]}, expected {want}"
                )
        if r["dropped_spans"]:
            failures.append(f"{w.name}: {r['dropped_spans']} spans dropped")
    return failures


def nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


# --------------------------------------------------------------------- #
# reporting
# --------------------------------------------------------------------- #
def report(result: dict, trace: bool) -> dict:
    """Print every metric by name with unit and bound; return the
    contract's result object."""
    bench = spec()
    w = result["workload"]
    print(f"# {w}: seed {result['seed']}, {result['ngroups']} groups, "
          f"{result['repeats']} {'traced' if result['traced'] else 'timed'} "
          f"repeats, kernel={result['kernel']}, "
          f"fold_threads={result['fold_threads']}, nproc={result['nproc']}, "
          f"load {result['load_1m'][0]:.2f} -> {result['load_1m'][1]:.2f}")
    unresolved = result["nproc"] < 2 and BY_NAME[w].runtime == "distributed"
    if unresolved:
        print("# fewer cores than processes: wall-clock metrics of this "
              "workload are UNRESOLVED (scheduler noise); counts stand")
    metrics = {}
    if not trace:
        for m in bench["end_to_end"]:
            got = result["end_to_end"].get(m["name"])
            if got is None:
                continue
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
            print(f"{m['name']:<34}{got['value']:>16.6g} {m['unit']:<10}"
                  f"IQR {got['rel_iqr']:6.2%}  n={got['n']}  "
                  f"{m['better']} is better, bound {m['bound']:.0%}"
                  + ("  UNRESOLVED" if unresolved and m["unit"] != "MiB" else ""))
        share = result["failed"] / result["attempted"]
        print(f"{'failed_share':<34}{share:>16.6g} {'fraction':<10}"
              f"{result['failed']} of {result['attempted']} groups")
    else:
        for m in bench["per_layer"]:
            got = result["per_layer"].get(m["name"])
            if got is None:
                continue
            metrics[m["name"]] = {"value": got["value"], "unit": m["unit"]}
            print(f"{m['name']:<38}{got['value']:>16.6g} {m['unit']}")
        for layer, share in sorted(result["layer_share"].items(),
                                   key=lambda kv: -kv[1]):
            if share >= 0.005:
                print(f"# self-time share of the traced window  "
                      f"{layer:<20}{share:6.1%}")
        for failure in result["closed_form_failures"]:
            print(f"# CLOSED FORM VIOLATED: {failure}")
    return {
        "correct": result["failed"] == 0 and not result["closed_form_failures"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }


# --------------------------------------------------------------------- #
# self-check: the acceptance protocol, run on ourselves
# --------------------------------------------------------------------- #
def selfcheck(seconds: float) -> int:
    """Two full sets, interleaved run by run as the pipeline pairs parent
    and change (A B, then B A, alternating with the seed).  Per (metric,
    workload): the two medians over ``SELFCHECK_RUNS`` seeds, their
    difference and their spreads (IQR / median), against the committed
    bound.  A pair whose medians differ by more than the bound, or whose
    workload failed a group, fails the check; a pair whose spread exceeds
    the bound is reported as unresolved."""
    bench = spec()
    runs: Dict[tuple, List[dict]] = {}
    for seed in range(1, SELFCHECK_RUNS + 1):
        for w in WORKLOADS:
            for label in ("AB", "BA")[seed % 2]:
                result = measure(w.name, seed, seconds, trace=False)
                runs.setdefault((w.name, label), []).append(result)
                print(f"set {label} seed {seed} {w.name}: " + ", ".join(
                    f"{n}={g['value']:.4g}" for n, g in result["end_to_end"].items()
                ), flush=True)

    ok = True
    pairs = {}
    print(f"\n{'workload':<20}{'metric':<14}{'median A':>12}{'median B':>12}"
          f"{'B vs A':>9}{'spread A':>10}{'spread B':>10}{'bound':>7}")
    for w in WORKLOADS:
        both = runs[w.name, "A"] + runs[w.name, "B"]
        failed_share = (
            sum(r["failed"] for r in both) / sum(r["attempted"] for r in both)
        )
        for m in bench["end_to_end"]:
            a, b = (
                [r["end_to_end"][m["name"]]["value"]
                 for r in runs[w.name, label] if r["end_to_end"]]
                for label in "AB"
            )
            if not (a and b):  # every repeat of a set failed
                ok = False
                pairs[f"{w.name}/{m['name']}"] = {"failed_share": failed_share}
                continue
            median_a, median_b = statistics.median(a), statistics.median(b)
            difference = (median_b - median_a) / median_a
            spread = max(rel_iqr(a), rel_iqr(b))
            agree = abs(difference) <= m["bound"] and failed_share == 0
            ok &= agree
            pairs[f"{w.name}/{m['name']}"] = {
                "unit": m["unit"], "bound": m["bound"],
                "median_a": median_a, "median_b": median_b,
                "b_vs_a": difference, "agree": agree,
                "bound_by_formula": max(BOUND_FLOOR[m["name"]], 2 * abs(difference)),
                "spread_a": rel_iqr(a), "spread_b": rel_iqr(b),
                "resolved": spread <= m["bound"],
                "failed_share": failed_share, "runs_a": a, "runs_b": b,
            }
            print(f"{w.name:<20}{m['name']:<14}{median_a:>12.5g}{median_b:>12.5g}"
                  f"{difference:>+9.2%}{rel_iqr(a):>10.2%}{rel_iqr(b):>10.2%}"
                  f"{m['bound']:>7.0%}" + ("" if agree else "  DISAGREE")
                  + ("" if spread <= m["bound"] else "  UNRESOLVED"))
        if failed_share:
            print(f"{w.name:<20}failed_share {failed_share:.4g}  FAILED")
    facts = {
        name: {(r["kernel"], r["fold_threads"]) for r in rs}
        for (name, _), rs in runs.items()
    }
    if any(len(f) != 1 for f in facts.values()):
        ok = False
        print("execution policy differed between runs:", facts)

    layers = {}
    for w in WORKLOADS:  # one traced run each: the per-layer baseline
        result = measure(w.name, 1, seconds, trace=True)
        ok &= result["failed"] == 0 and not result["closed_form_failures"]
        layers[w.name] = {
            "per_layer": {n: g["value"] for n, g in result["per_layer"].items()},
            "self_time_share": result["layer_share"],
        }
    import numpy

    unresolved = sorted(k for k, p in pairs.items() if not p.get("resolved"))
    baseline = {
        "passed": bool(ok), "unresolved": unresolved,
        "runs_per_set": SELFCHECK_RUNS, "run_seconds": seconds,
        "cpus": nproc(), "commit": _commit(), "python": platform.python_version(),
        "numpy": numpy.__version__, "machine": platform.machine(),
        "kernel_backend": sorted({k for f in facts.values() for k, _ in f}),
        "fold_threads": sorted({t for f in facts.values() for _, t in f}),
        "checkpoint_dir": "checkout disk (.bench_build/e2e)",
        "end_to_end": pairs, "layers": layers,
    }
    BASELINE.write_text(json.dumps(baseline, indent=1, sort_keys=True) + "\n")
    print(f"\nself-check {'passed' if ok else 'FAILED'}, {len(unresolved)} of "
          f"{len(pairs)} pairs unresolved (spread above bound); wrote {BASELINE}")
    return 0 if ok else 1


def _commit() -> str:
    try:
        return subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or "unknown"
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"


# --------------------------------------------------------------------- #
def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="python3 -m benchmarks.e2e",
                                 description=__doc__,
                                 formatter_class=argparse.RawTextHelpFormatter)
    ap.add_argument("--workload", choices=sorted(BY_NAME))
    ap.add_argument("--seed", type=int, default=1,
                    help="drives the pick-freeze design and nothing else")
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0,
                    help="1: trace every timed repeat, print per-layer metrics")
    ap.add_argument("--scale", type=float, default=1.0,
                    help="rescale ngroups (smoke runs; metrics are not comparable)")
    ap.add_argument("--repeats", type=int, default=None,
                    help="exact number of timed repeats instead of --seconds")
    ap.add_argument("--selfcheck", action="store_true",
                    help="two interleaved full sets against the committed bounds")
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(f"the program under test is not at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    seconds = spec()["run_seconds"] if args.seconds is None else args.seconds
    BUILD.mkdir(parents=True, exist_ok=True)
    if args.selfcheck:
        return selfcheck(seconds)
    if args.workload is None:
        ap.error("--workload is required (or --selfcheck)")
    result = measure(
        args.workload, args.seed, seconds, bool(args.trace), args.scale,
        args.repeats,
        BUILD / f"{args.workload}.trace.json" if args.trace else None,
    )
    line = report(result, bool(args.trace))
    wanted = spec()["per_layer" if args.trace else "end_to_end"]
    if len(line["metrics"]) != len(wanted):
        print("no verified repeat produced the metrics", file=sys.stderr)
        return 1
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
