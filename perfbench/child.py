"""Run one repetition of a workload's ``conet`` verbs in this fresh process.

Usage: ``python3 perfbench/child.py <spec.json>``. The spec names the
checkout root, the argument lists of the verbs, whether to trace, and
where to write the result. The parent sets the BLAS thread count in this
process's environment before numpy loads, and generates the inputs
elsewhere, so the peak resident memory reported here is the program's.
Verbs run in process through ``conet.cli.main``; after the first one
that fails, the rest are skipped.
"""

from __future__ import annotations

import json
import resource
import sys
import traceback
from pathlib import Path

import tracing


def main(spec_path: str) -> int:
    spec = json.loads(Path(spec_path).read_text(encoding="utf-8"))
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import conet.cli

    if not Path(conet.cli.__file__).resolve().is_relative_to(src.resolve()):
        print(f"conet was imported from {conet.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    tracer = tracing.Tracer()
    if spec["trace"]:
        tracer.install(tracing.PROBES + tracing.model_probes())
    else:
        tracer.install(tracing.END_TO_END_PROBES)
    verbs = []
    try:
        for argv in spec["verbs"]:
            try:
                code, error = tracer.run_root("cli." + argv[0], conet.cli.main, argv), None
            except (Exception, SystemExit):
                code, error = None, traceback.format_exc()
            verbs.append({"argv": argv, "code": code, "error": error})
            if code != 0:
                break
    finally:
        tracer.uninstall()
    result = {
        "verbs": verbs,
        "spans": tracer.spans,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    Path(spec["result"]).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1]))
