"""qrmirror benchmark: seeded workloads timed end to end and, in a separate
traced run, layer by layer.

    python3 perfbench/run.py --workload tables|sweep|pipeline --seed N \
        --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from
``src``.  Every unit of work runs in a fresh child process (``child.py``),
one after another, each a single closed-loop caller making sequential calls
with BLAS/OpenMP pinned to one thread.  Untraced runs repeat units while
the next one still fits in ``--seconds`` and report the median; set-up is
measured in every child and in two set-up-only children, and reported as
the median.  A traced run executes one untraced and one traced unit and
reports the per-layer metrics and the tracing overhead.

The last line of standard output is the result object; the line before it
is the full record (inputs, environment, checks), also written to
``perfbench/out/``.  Exit code 0 means every operation and every check
passed.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

from inputs import GENERATORS, draw
from spans import UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
DEADLINE_S = 170.0
SETUP_PROBES = 2
TIMINGS = ("import_s", "import_raw_s", "setup_s", "setup_raw_s", "elapsed_s")
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


def _commit() -> str | None:
    """HEAD of the checkout read from ``.git`` directly, if there is one."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_sha256() -> str:
    """Digest of the package sources, which names the code without git."""
    digest = hashlib.sha256()
    pkg = ROOT / "src" / "qrmirror"
    for path in sorted(pkg.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(pkg)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


class Runner:
    """Starts children one at a time and keeps their results."""

    def __init__(self, args, inputs: dict):
        self.args = args
        self.inputs = inputs
        self.run_id = f"{args.workload}-s{args.seed}-t{args.trace}"
        self.start = time.perf_counter()
        self.env = dict(os.environ, **{v: "1" for v in THREAD_VARS})
        self.children: list[dict] = []

    def child(self, unit: bool, trace: bool = False) -> dict:
        spec = {"workload": self.args.workload, "inputs": self.inputs,
                "unit": unit, "trace": trace, "run_id": self.run_id,
                "out_dir": str(OUT)}
        budget = DEADLINE_S - (time.perf_counter() - self.start)
        t = time.perf_counter()
        record = {"unit": unit, "trace": trace}
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), json.dumps(spec)],
                cwd=ROOT, env=self.env, capture_output=True, text=True,
                timeout=max(budget, 1.0))
        except subprocess.TimeoutExpired:
            record["error"] = f"child exceeded the {DEADLINE_S:g} s deadline"
        else:
            lines = proc.stdout.strip().splitlines()
            if proc.returncode == 0 and lines:
                record.update(json.loads(lines[-1]))
            else:
                record["error"] = (f"child exit {proc.returncode}: "
                                   f"{proc.stderr.strip()[-2000:]}")
        record["elapsed_s"] = time.perf_counter() - t
        record.setdefault("ops", 1)
        record.setdefault("checks", [])
        self.children.append(record)
        return record


def _determinism_checks(units: list[dict]) -> list[dict]:
    """Every unit of a run must give bit-identical outputs and counts."""
    first = units[0]["outputs"]
    return [{"name": f"deterministic.unit{i}", "ok": u["outputs"] == first,
             "detail": ""} for i, u in enumerate(units[1:], start=1)]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(GENERATORS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "qrmirror" / "__init__.py").is_file():
        print(f"error: no qrmirror sources under {ROOT / 'src'}; run from a "
              "source checkout", file=sys.stderr)
        return 2

    inputs = draw(args.workload, args.seed)
    runner = Runner(args, inputs)
    for _ in range(SETUP_PROBES):
        runner.child(unit=False)
    if args.trace:
        untraced = runner.child(unit=True)
        traced = runner.child(unit=True, trace=True)
    else:
        timed_start = time.perf_counter()
        while True:
            last = runner.child(unit=True)
            if last.get("error"):
                break
            elapsed = time.perf_counter() - timed_start
            if elapsed + last["elapsed_s"] > args.seconds:
                break

    children = runner.children
    units = [c for c in children if c["unit"] and not c.get("error")]
    checks = [chk for c in children for chk in c["checks"]]
    if units:
        checks += _determinism_checks(units)
    failed_ops = sum(1 for c in children if c.get("error"))
    failed_checks = sum(1 for chk in checks if not chk["ok"])
    attempted = sum(c["ops"] for c in children) + len(checks)
    failed = failed_ops + failed_checks
    correct = failed == 0 and bool(units) and (
        not args.trace or "layers" in traced)

    metrics: dict[str, dict] = {}
    if correct and args.trace:
        layers = dict(traced["layers"])
        layers.update(traced["extras"])
        layers["trace.untraced_wall_s"] = untraced["wall_s"]
        layers["trace.overhead_s"] = layers["trace.wall_s"] - untraced["wall_s"]
        metrics = {k: {"value": v, "unit": UNITS[k]}
                   for k, v in sorted(layers.items())}
    elif correct:
        samples = {
            ("wall_s", "s"): [u["wall_s"] for u in units],
            ("setup_s", "s"): [c["import_s"] + c["setup_s"] for c in children],
            ("peak_rss_mb", "MB"): [u["peak_rss_mb"] for u in units],
        }
        metrics = {name: {"value": statistics.median(values), "unit": unit}
                   for (name, unit), values in samples.items()}

    record = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "inputs": inputs,
        "environment": {
            "nproc": os.cpu_count(),
            "affinity": len(os.sched_getaffinity(0)),
            "threads": {v: runner.env[v] for v in THREAD_VARS},
            "versions": next((c["versions"] for c in children
                              if "versions" in c), None),
            "commit": _commit(), "src_sha256": _src_sha256(),
        },
        "fail_ratio": failed / attempted if attempted else 1.0,
        "attempted": attempted, "failed": failed,
        "units": [{k: c.get(k) for k in TIMINGS + ("wall_s", "wall_raw_s",
                                                     "peak_rss_mb")}
                  for c in units],
        "setup_children": [{k: c.get(k) for k in TIMINGS}
                           for c in children if not c["unit"]],
        "outputs": units[0]["outputs"] if units else None,
        "errors": [c["error"] for c in children if c.get("error")],
        "failed_checks": [chk for chk in checks if not chk["ok"]],
        "checks": len(checks),
        "metrics": metrics,
    }
    OUT.mkdir(parents=True, exist_ok=True)
    (OUT / f"result-{runner.run_id}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
