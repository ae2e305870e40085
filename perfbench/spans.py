"""In-memory spans around the benchmark's calls into qrmirror, their
speed-normalised durations, and the per-layer numbers derived from them.

A span is opened by the benchmark around one call into a public function of
the package; its name is ``<layer>.<function>`` with the layer taken from the
module name (``potential``, ``reflection``, ...).  The benchmark's glue
(``bench.setup``, ``bench.unit``) are the root spans; calls nest one level
under a root.  Durations are normalised to a reference speed (see
``reference.py``) from samples of a reference loop taken on the same CPU
when a root opens and after every call that is not short.  Nothing here
imports numpy or the package, so the parent process can use it too.
"""

from __future__ import annotations

import json
import statistics
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Callable

LAYERS = ("potential", "reflection", "lifetimes", "numerov", "reporting",
          "cli", "bench")
MIRROR_KINDS = ("pc", "bulk", "slab", "sheet", "porous")

# Unit of every per-layer metric a traced run reports.
UNITS = {
    **{f"{layer}.self_s": "s" for layer in LAYERS if layer != "reporting"},
    **{f"potential.build_s.{kind}": "s" for kind in MIRROR_KINDS},
    "potential.points": "count",
    "potential.point_ms": "ms",
    "potential.c3_anchor_dev": "ratio",
    "potential.query_us": "us",
    "reflection.solve_s": "s",
    "reflection.steps": "count",
    "reflection.rejected": "count",
    "reflection.step_us": "us",
    "reflection.window_decades": "decades",
    "reflection.flux_drift_max": "ratio",
    "reflection.steps_c4": "count",
    "reflection.badlands_s": "s",
    "lifetimes.lifetime_s": "s",
    "lifetimes.solves": "count",
    "lifetimes.linear_deviation": "ratio",
    "numerov.solve_s": "s",
    "numerov.points": "count",
    "numerov.r_dev_max": "abs",
    "reporting.write_s": "s",
    "trace.wall_s": "s",
    "trace.untraced_wall_s": "s",
    "trace.overhead_s": "s",
}


# Calls shorter than this take no reference sample after them, so that the
# samples spread over the measured time instead of bunching around the many
# microsecond calls (tolerance checks, report writes).
SAMPLE_AFTER_S = 0.25
ROOT_SAMPLES = 3


class Tracer:
    """Times every call and keeps spans in memory when ``record`` is set.

    ``reference`` runs the reference loop once and returns its seconds;
    ``nominal_s`` is its time at the reference speed.  A call's normalised
    duration is its raw duration times ``nominal_s`` over the mean of the
    samples right before and right after it; a root's is the sum over its
    calls plus its glue at the last sample's speed.  ``calls`` counts every
    span and ``roots`` the root spans among them.  The untraced run needs
    only the counts and the roots' durations, not the span records.
    """

    def __init__(self, run_id: str, record: bool,
                 reference: Callable[[], float], nominal_s: float):
        self.run_id = run_id
        self.record = record
        self.reference = reference
        self.nominal_s = nominal_s
        self.calls = self.roots = 0
        self.spans: list[dict] = []
        self.last_raw = self.last_norm = 0.0
        self._root: dict | None = None

    def _sample(self, root: dict) -> float:
        t = time.perf_counter()
        root["ref"] = self.reference()
        root["ref_s"] += time.perf_counter() - t
        return root["ref"]

    @contextmanager
    def span(self, name: str, **attrs):
        """Time the enclosed call; the yielded dict takes result attributes."""
        self.calls += 1
        root = self._root
        if root is None:
            self.roots += 1
            ref = statistics.median(self.reference()
                                    for _ in range(ROOT_SAMPLES))
            root = {"id": len(self.spans), "ref": ref, "ref_s": 0.0,
                    "calls_raw": 0.0, "calls_norm": 0.0}
        record = None
        if self.record:
            record = {"id": len(self.spans), "run": self.run_id, "name": name,
                      "parent": None if self._root is None else root["id"],
                      "start": 0.0, "end": 0.0, "raw": 0.0, "norm": 0.0,
                      "attrs": attrs}
            self.spans.append(record)
        is_root, self._root = self._root is None, root
        before = root["ref"]
        start = time.perf_counter()
        try:
            yield attrs
        finally:
            end = time.perf_counter()
            raw = end - start
            if is_root:
                self._root = None
                raw -= root["ref_s"]
                glue = raw - root["calls_raw"]
                norm = root["calls_norm"] + glue * self.nominal_s / root["ref"]
                self.last_raw, self.last_norm = raw, norm
            else:
                after = self._sample(root) if raw >= SAMPLE_AFTER_S else before
                norm = raw * 2.0 * self.nominal_s / (before + after)
                root["calls_raw"] += raw
                root["calls_norm"] += norm
            if record is not None:
                record.update(start=start, end=end, raw=raw, norm=norm)

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"run": self.run_id,
                                    "nominal_s": self.nominal_s,
                                    "spans": self.spans}, indent=1) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> normalised duration minus that of its direct children."""
    own = {s["id"]: s["norm"] for s in spans}
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= s["norm"]
    return own


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics of one traced set-up plus timed unit.

    Self times cover the timed unit only (``bench.unit`` and below), so that
    they add up to the unit's traced wall time.  Table builds are counted
    wherever they happen, since ``sweep`` builds its tables in set-up.
    Metrics of a layer the workload does not call are 0.
    """
    root = next(s["id"] for s in spans if s["name"] == "bench.unit")
    unit = [s for s in spans if root in (s["id"], s["parent"])]
    own = self_times(spans)
    m: dict[str, float] = {}
    for layer in LAYERS:
        if layer != "reporting":
            m[f"{layer}.self_s"] = sum(own[s["id"]] for s in unit
                                       if s["name"].split(".")[0] == layer)
    m["reporting.write_s"] = sum(own[s["id"]] for s in unit
                                 if s["name"].startswith("reporting."))

    builds = [s for s in spans if s["name"] == "potential.build_solver_table"]
    for kind in MIRROR_KINDS:
        m[f"potential.build_s.{kind}"] = sum(
            s["norm"] for s in builds if s["attrs"]["kind"] == kind)
    points = sum(s["attrs"]["points"] for s in builds)
    m["potential.points"] = points
    m["potential.point_ms"] = (1e3 * sum(s["norm"] for s in builds) / points
                               if points else 0.0)

    solves = [s for s in unit if s["name"] == "reflection.solve_reflection"]
    cp = [s for s in solves if s["attrs"]["table"] != "c4"]
    cp_time = sum(s["norm"] for s in cp)
    steps = sum(s["attrs"]["steps"] for s in cp)
    rejected = sum(s["attrs"]["rejected"] for s in cp)
    m["reflection.solve_s"] = cp_time / len(cp) if cp else 0.0
    m["reflection.steps"] = steps
    m["reflection.rejected"] = rejected
    m["reflection.step_us"] = (1e6 * cp_time / (steps + rejected)
                               if steps + rejected else 0.0)
    m["reflection.window_decades"] = _mean(
        [s["attrs"]["window_decades"] for s in cp])
    m["reflection.flux_drift_max"] = max(
        (s["attrs"]["flux_drift"] for s in solves), default=0.0)
    m["reflection.steps_c4"] = sum(s["attrs"]["steps"] for s in solves
                                   if s["attrs"]["table"] == "c4")
    m["reflection.badlands_s"] = _mean(
        [s["norm"] for s in unit if s["name"] == "reflection.badlands_profile"])

    # one lifetime = the scattering-length extraction plus gqs_lifetime
    extractions = [s for s in unit if s["name"] in (
        "lifetimes.lifetime_for_table", "lifetimes.scattering_length")]
    lifetime_time = sum(s["norm"] for s in unit
                        if s["name"].startswith("lifetimes."))
    m["lifetimes.lifetime_s"] = (lifetime_time / len(extractions)
                                 if extractions else 0.0)
    m["lifetimes.solves"] = _mean([s["attrs"]["solves"] for s in extractions])
    m["lifetimes.linear_deviation"] = max(
        (s["attrs"]["linear_deviation"] for s in extractions), default=0.0)

    numerov = [s for s in unit if s["name"] == "numerov.numerov_reflection"]
    m["numerov.solve_s"] = _mean([s["norm"] for s in numerov])
    m["numerov.points"] = sum(s["attrs"]["points"] for s in numerov)
    m["numerov.r_dev_max"] = max((s["attrs"]["r_dev"] for s in numerov),
                                 default=0.0)

    m["trace.wall_s"] = spans[root]["norm"]
    return m
