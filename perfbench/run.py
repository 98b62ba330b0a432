"""Benchmark of the conicmirror package: one workload per call.

    python3 perfbench/run.py --workload ring --seed 1 --seconds 18 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``, nothing needs installing. Workloads: ``ring``, ``geometry``,
``amoeba`` (see README.md). With ``--trace 0`` the last line of stdout is
the JSON result with the end-to-end metrics; with ``--trace 1`` it holds the
per-layer metrics of a traced run, and the spans go to
``perfbench/out/trace-<workload>-<seed>.json``. The lines before it are a
readable report of every rate the workload measured.

Each workload runs in fresh single-threaded processes started from here:
several set-up-only processes and one measuring process, with cold runs of
the workload's own command in between.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import threading
import time
from fractions import Fraction
from pathlib import Path

import checks

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
REQUIRED = ("src/conicmirror/cli.py", "scripts/oracle_lower_hull.py")
WORKLOADS = ("ring", "geometry", "amoeba")
COLD_RUNS = 9  # cold command runs per run, after one discarded run; a set-up-only
# process follows every third, so set-up is measured 4 times with the measuring one
IMPORT_RUNS = 3  # fresh-interpreter imports per traced run
CHILD_TIMEOUT = 170

FOUR_POINT = {"points": [[0, 0], [1, 0], [0, 1], [-1, -1]], "heights": ["-1/4", "0", "0", "0"]}
COLD_T = math.exp(4)


def child_env() -> dict:
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "CONIC_MIRROR_THREADS"):
        env[var] = "1"
    env["PYTHONHASHSEED"] = "0"
    return env


def run_child(args, mode: str, tag: str, trace_out: str = "") -> dict:
    """One fresh workload process; its result is the last line of its stdout."""
    work = OUT / f"work-{args.workload}-{os.getpid()}-{tag}"
    cmd = [sys.executable, str(HERE / "workloads.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--mode", mode,
           "--work", str(work)]
    if trace_out:
        cmd += ["--trace-out", trace_out]
    if args.smoke:
        cmd.append("--smoke")
    t0 = time.monotonic()
    proc = subprocess.run(cmd + ["--t0", repr(t0)], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, timeout=CHILD_TIMEOUT, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"workload process exited {proc.returncode}")
    return json.loads(lines[-1])


# ------------------------------------------------------------- cold CLI


def cold_job(workload: str) -> tuple[list[str], dict]:
    """The workload's own command on a small input: (argv after the module, input)."""
    if workload == "ring":
        x = [{"n": [1, 0], "i": 0, "c": "1"}, {"n": [-1, -1], "i": 1, "c": "1/2"}]
        y = [{"n": [0, 1], "i": 0, "c": "2"}, {"n": [2, -1], "i": -1, "c": "-3"}]
        return ["ring-mul"], {"polygon": FOUR_POINT, "x": x, "y": y}
    if workload == "geometry":
        return ["tropical"], FOUR_POINT
    return ["amoeba", "--t", repr(COLD_T), "--grid", "40x16"], FOUR_POINT


def check_cold(workload: str, job: dict, out: dict) -> None:
    pts = [tuple(p) for p in FOUR_POINT["points"]]
    hts = [Fraction(h) for h in FOUR_POINT["heights"]]
    if workload == "ring":
        got = checks.terms_from_json(out["product"])
        want = checks.ref_product(pts, checks.terms_from_json(job["x"]),
                                  checks.terms_from_json(job["y"]))
        checks.require(got == want, "cold ring-mul product is wrong")
    elif workload == "geometry":
        cells, _ = checks.load_qhull_oracle(ROOT).lower_hull_cells(pts, hts)
        checks.check_curve(pts, hts, cells, out["curve"])
    else:
        checks.check_cloud(pts, hts, COLD_T, out["cloud"]["points"])


def timed_run(cmd: list[str]) -> tuple[float, int]:
    """(wall seconds, exit code) of one fresh process.

    ``wait()`` without a timeout blocks in waitpid; with a timeout Python
    polls in sleeps of up to 50 ms, which would round the times. A timer
    kills a process that hangs.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, env=child_env(), cwd=ROOT, stdout=subprocess.DEVNULL)
    watchdog = threading.Timer(60.0, proc.kill)
    watchdog.start()
    try:
        code = proc.wait()
    finally:
        watchdog.cancel()
    return time.perf_counter() - start, code


def cold_runs(workload: str, count: int) -> tuple[list[float], bool]:
    """Fresh ``python -m conicmirror.cli <command>`` runs.

    Returns the wall seconds of each run, and whether every run exited 0
    with a correct output.
    """
    argv, job = cold_job(workload)
    src = OUT / f"cold-{workload}-{os.getpid()}.json"
    dst = OUT / f"cold-{workload}-{os.getpid()}.out.json"
    src.write_text(json.dumps(job), encoding="utf-8")
    cmd = [sys.executable, "-m", "conicmirror.cli", *argv, "--in", str(src), "--out", str(dst)]
    times, ok = [], True
    try:
        for _ in range(count):
            seconds, code = timed_run(cmd)
            times.append(seconds)
            try:
                checks.require(code == 0, f"cold {argv[0]} exited {code}")
                check_cold(workload, job, json.loads(dst.read_text(encoding="utf-8")))
            except checks.CheckFailed as exc:
                print(f"check failed: {exc}", file=sys.stderr)
                ok = False
    finally:
        src.unlink(missing_ok=True)
        dst.unlink(missing_ok=True)
    return times, ok


# ------------------------------------------------------------ import cost


def import_seconds() -> float:
    """Wall seconds of ``import conicmirror.cli`` in a fresh interpreter."""
    code = ("import time; t = time.perf_counter(); import conicmirror.cli; "
            "print(time.perf_counter() - t)")
    proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                          stdout=subprocess.PIPE, text=True, timeout=60, check=True)
    return float(proc.stdout.strip())


def numpy_scipy_share() -> float:
    """Share of ``import conicmirror.cli`` spent importing numpy and scipy.

    From ``-X importtime``: cumulative time of the outermost numpy and scipy
    imports over the cumulative time of the outermost conicmirror imports.
    """
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import conicmirror.cli"],
                          env=child_env(), cwd=ROOT, stderr=subprocess.PIPE, text=True,
                          timeout=60, check=True)
    rows = []
    for line in proc.stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line.split("|")
        name = name[1:].rstrip()
        rows.append((len(name) - len(name.lstrip()), name.strip(), int(cumulative)))
    package = sum(c for depth, name, c in rows if depth == 0 and name.startswith("conicmirror"))
    # children are printed before their parent: walk backwards to see parents first
    heavy, inside = 0, None
    for depth, name, cumulative in reversed(rows):
        if inside is not None and depth > inside:
            continue
        inside = None
        if name.split(".")[0] in ("numpy", "scipy"):
            heavy += cumulative
            inside = depth
    return heavy / package


# ------------------------------------------------------------------ main


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def report(args, child: dict) -> None:
    print(f"workload {args.workload}, seed {args.seed}: {child.get('rounds', 0)} rounds, "
          f"attempted {child.get('attempted', 0)}, failed {child.get('failed', 0)}, "
          f"correct {child['correct']}")
    raw = child.get("raw_rates", {})
    for name, value in child.get("rates", {}).items():
        print(f"  {name:28s} {value:14.2f} 1/s  (unscaled {raw[name]:.2f})")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs and fewer repetitions, for the smoke test")
    args = parser.parse_args()
    missing = [p for p in REQUIRED + ("BENCHMARK.json",) if not (ROOT / p).is_file()]
    if missing:
        print(f"not a conicmirror checkout: missing {', '.join(missing)}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}",
              file=sys.stderr)
        return 2
    spec = load_spec()
    OUT.mkdir(parents=True, exist_ok=True)

    cold_ok = True
    if args.trace:
        imports = [import_seconds() for _ in range(1 if args.smoke else IMPORT_RUNS)]
        share = statistics.median(numpy_scipy_share() for _ in range(1 if args.smoke else IMPORT_RUNS))
        trace_out = str(OUT / f"trace-{args.workload}-{args.seed}.json")
        child = run_child(args, "trace", "trace", trace_out)
        layers = child["layers"]
        layers["cli.import_s"] = statistics.median(imports)
        layers["cli.import_numpy_scipy_s"] = share * layers["cli.import_s"]
        wanted = spec["per_layer"]
        report(args, child)
        for m in wanted:
            print(f"  {m['name']:42s} {layers[m['name']]:14.6g} {m['unit']}")
    else:
        colds_wanted = 2 if args.smoke else COLD_RUNS
        _, cold_ok = cold_runs(args.workload, 1)  # discarded: byte-compiles the sources
        colds, setups = [], []
        # cold runs and set-up probes spread before and after the measuring
        # process, so that they sample the whole run
        for k in range(colds_wanted):
            if k == colds_wanted // 2:
                child = run_child(args, "run", "run")
                setups.append(child["setup_s"])
            times, ok = cold_runs(args.workload, 1)
            colds += times
            cold_ok = cold_ok and ok
            if k % 3 == 1:
                setups.append(run_child(args, "setup", f"probe{k}")["setup_s"])
        rates = child.get("rates", {})
        layers = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": child["peak_rss_mb"],
            "cli_cold_ms": 1000.0 * statistics.median(colds),
            "rate_gmean_per_s": math.exp(statistics.fmean(math.log(r) for r in rates.values()))
            if rates else 0.0,
        }
        wanted = spec["end_to_end"]
        report(args, child)
        print(f"  cold runs (s): {' '.join(f'{t:.3f}' for t in colds)}")
        print(f"  set-ups (s):   {' '.join(f'{t:.3f}' for t in setups)}")
        for m in wanted:
            print(f"  {m['name']:28s} {layers[m['name']]:14.4f} {m['unit']}")
    result = {
        "correct": bool(child["correct"]) and cold_ok,
        "attempted": int(child.get("attempted", 0)),
        "failed": int(child.get("failed", 0)),
        "metrics": {m["name"]: {"value": layers[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
