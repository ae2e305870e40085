"""One benchmark child process: imports, set-up and optionally one timed unit.

Each unit runs in a fresh interpreter, as a user's run would, so that no
cache filled by an earlier unit makes a later one faster.  Invoked by
``run.py`` with one JSON argument; prints one JSON line.
"""

import json
import resource
import sys
import time
import traceback
from pathlib import Path

T0 = time.perf_counter()

ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
import scipy  # noqa: E402

import reference  # noqa: E402
from spans import Tracer, layer_metrics  # noqa: E402
from workloads import WORKLOADS, Checks, query_us  # noqa: E402

IMPORT_RAW_S = time.perf_counter() - T0


def main() -> int:
    spec = json.loads(sys.argv[1])
    setup, unit, check = WORKLOADS[spec["workload"]]
    inputs = spec["inputs"]
    out_dir = Path(spec["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    tracer = Tracer(spec["run_id"], record=spec["trace"],
                    reference=reference.sample, nominal_s=reference.NOMINAL_S)
    checks = Checks()
    result = {"import_raw_s": IMPORT_RAW_S, "error": None, "outputs": None,
              "versions": {"python": sys.version.split()[0],
                           "numpy": numpy.__version__,
                           "scipy": scipy.__version__}}
    try:
        with tracer.span("bench.setup"):
            state = setup(inputs, tracer)
        result["setup_raw_s"] = tracer.last_raw
        result["setup_s"] = tracer.last_norm
        # imports end right before set-up, so they share its speed factor
        result["import_s"] = IMPORT_RAW_S * tracer.last_norm / tracer.last_raw
        state["out_dir"] = out_dir
        if spec["unit"]:
            with tracer.span("bench.unit"):
                outputs = unit(state, inputs, tracer)
            result["wall_raw_s"] = tracer.last_raw
            result["wall_s"] = tracer.last_norm
            result["outputs"] = outputs
            result["extras"] = check(state, inputs, checks)
            if spec["trace"]:
                result["extras"]["potential.query_us"] = query_us(state["pc"])
    except Exception:  # reported to the parent as one failed operation
        result["error"] = traceback.format_exc()
    result["ops"] = tracer.calls - tracer.roots
    result["checks"] = checks.results
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if spec["trace"] and result["error"] is None:
        tracer.write(out_dir / f"trace-{spec['run_id']}.json")
        result["layers"] = layer_metrics(tracer.spans)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
