"""One fresh benchmark process: import, validate, then run the sweep in-process.

Prints one JSON line last: `ready` (the perf_counter reading once the
package is imported and every config validated by `load_config`), and
unless `--setup-only`, the sweep's wall and CPU time, the process's peak
RSS and the CLI exit codes. With `--spans FILE` the program's public functions
are traced and the spans are written to FILE after the sweep.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter, process_time


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--src", required=True, help="directory the package must come from")
    parser.add_argument("--config", action="append", default=[])
    parser.add_argument("--out", action="append", default=[])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--spans")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    from uwoc_relay_sim import cli

    for config in args.config:
        cli.load_config(config)
    ready = perf_counter()
    if not Path(cli.__file__).resolve().is_relative_to(Path(args.src).resolve()):
        print(f"perfbench: imported {cli.__file__}, not the package under {args.src}",
              file=sys.stderr)
        return 3
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    tracer = None
    if args.spans:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()

    codes = []
    cpu_start = process_time()
    start = perf_counter()
    for config, out in zip(args.config, args.out):
        codes.append(cli.main([
            "run", "--config", config, "--out", out, "--format", "json",
            "--threads", "1", "--seed", str(args.seed),
        ]))
    sweep_s = perf_counter() - start
    cpu_s = process_time() - cpu_start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    if tracer is not None:
        Path(args.spans).write_text(json.dumps(tracer.spans))
    print(json.dumps({
        "ready": ready, "sweep_s": sweep_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "codes": codes,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
