"""Gateway subprocess of the serve-http-1k workload.

Serves ``Gateway(backend=None, max_concurrent_jobs=2)`` over an
in-process job service whose result cache and run ledger live in the
given paths, prints ``listening HOST:PORT`` once bound, and serves until
its standard input closes, answering each ``rss`` line on it with its
peak RSS so far in MB.  It then writes its peak RSS and, with
``--trace``, the spans of the layer shims it installed to
``--stats-out``.

    python e2ebench/gateway_main.py --cache-dir C --ledger L.sqlite \\
        --stats-out stats.json [--trace]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from spans import SERVE_TARGETS, SIM_TARGETS, Tracer
from workloads import MAX_CONCURRENT_JOBS, peak_rss_mb


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--cache-dir", required=True)
    parser.add_argument("--ledger", required=True)
    parser.add_argument("--stats-out", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args()

    tracer = Tracer().install(SIM_TARGETS + SERVE_TARGETS) if args.trace else None
    from repro.obs.ledger import RunLedger
    from repro.serve.gateway import Gateway

    ledger = RunLedger(args.ledger)
    gateway = Gateway(
        "127.0.0.1:0", backend=None, max_concurrent_jobs=MAX_CONCURRENT_JOBS,
        cache_dir=args.cache_dir, ledger=ledger,
    ).start()
    try:
        print(f"listening {gateway.addr}", flush=True)
        for line in sys.stdin:
            if line.strip() == "rss":
                print(peak_rss_mb(), flush=True)
    finally:
        gateway.stop()
        ledger.close()
        if tracer is not None:
            tracer.remove()
    stats = {
        "peak_rss_mb": peak_rss_mb(),
        "spans": tracer.spans if tracer is not None else [],
    }
    Path(args.stats_out).write_text(json.dumps(stats))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
