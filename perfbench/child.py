"""One cold iteration of one benchmark workload, in a fresh process.

    python3 perfbench/child.py <workload> <seed> <trace: 0|1> <workdir>

Every ``repro`` module is imported before the clock starts, so the
timed region holds no import or bytecode-compile time (``setup_s``
measures that).  Nothing else is warmed: the workload is generated,
decoded and simulated from scratch in this process.  With trace 1 the
span recorder covers exactly the timed region, its spans are written to
``.perfbench/spans-<workload>.{json,bin}``, and the layer report is
added to the record.  The record is printed as one JSON line.
"""

from __future__ import annotations

import importlib
import json
import pkgutil
import sys
from pathlib import Path

import spans
import suite

ROOT = Path(__file__).resolve().parent.parent


def import_repro() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import repro

    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        importlib.import_module(info.name)


def main(argv: list[str]) -> int:
    workload, seed, trace, workdir = argv
    import_repro()
    recorder = spans.SpanRecorder() if trace == "1" else None
    record = suite.RUNNERS[workload](int(seed), Path(workdir), recorder)
    if recorder is not None:
        report = recorder.layer_report(record["host_wall_s"])
        layer_sum = sum(report[f"{layer}.self_s"] for layer in spans.LAYERS)
        gap = layer_sum + report["trace.residual_s"] - report["trace.wall_s"]
        if abs(gap) > 1e-6 * max(1.0, report["trace.wall_s"]):
            record["failures"].append(
                f"layer self times miss the traced wall time by {gap:.3g}s"
            )
        out = ROOT / ".perfbench"
        out.mkdir(exist_ok=True)
        recorder.write(out / f"spans-{workload}")
        record["trace"] = report
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
