"""One benchmark iteration in a fresh interpreter.

    python3 worker.py RESULT_JSON SPAWN_MONOTONIC CONFIG
                      [--run SUBCOMMAND OUTDIR [--trace SPANS_JSON]]

Set-up is timed from SPAWN_MONOTONIC (the parent's clock reading just
before it started this process; CLOCK_MONOTONIC is shared by processes)
to the point where ``ballwalk.cli`` is imported and CONFIG is loaded;
then it runs the calibration ``probe`` once; without ``--run`` it stops
there.  The run itself is ``ballwalk.cli.main`` from entry to return,
output writes included, and is followed by a second probe.
run.py starts this script with PYTHONPATH naming the checkout's
``src`` and BLAS pinned to one thread, as the CLI pins it.
"""

import argparse
import json
import os
import sys
import time


def probe():
    """Seconds taken by a fixed calibration loop: the host's current speed.

    Three kernels of about 50 ms each on this code's kind of work: the
    interpreter, numpy on a cache-resident array and numpy streaming over
    4 MB.  They depend on nothing in ``ballwalk``.  run.py divides each
    process's times by its probe, which cancels the host slowing down or
    speeding up between and within runs.
    """
    import numpy as np

    t0 = time.perf_counter()
    acc = 0
    for i in range(600000):
        acc += i * i % 7
    a = np.arange(4096, dtype=float)
    for _ in range(6000):
        a = np.sqrt(a * 1.0001 + 1.0)
    b = np.ones(500_000)
    for _ in range(240):
        b *= 1.0000001
    return time.perf_counter() - t0


def main():
    p = argparse.ArgumentParser()
    p.add_argument("result")
    p.add_argument("spawn", type=float)
    p.add_argument("config")
    p.add_argument("--run", nargs=2, metavar=("SUBCOMMAND", "OUTDIR"))
    p.add_argument("--trace", default=None)
    args = p.parse_args()

    import ballwalk.cli as cli  # pins BLAS before numpy is first imported
    from ballwalk import config

    config.load(args.config)
    setup_s = time.monotonic() - args.spawn

    import numpy
    import scipy

    result = {"setup_s": setup_s, "ballwalk": os.path.dirname(cli.__file__),
              "numpy": numpy.__version__, "scipy": scipy.__version__,
              "blas_pin": {k: v for k, v in os.environ.items()
                           if k.endswith("_THREADS")}}
    result["probe_s"] = [probe()]
    if args.run:
        subcommand, outdir = args.run
        tracer = None
        if args.trace:
            from spans import Tracer

            tracer = Tracer()
            tracer.install()
        t0 = time.perf_counter()
        rc = cli.main([subcommand, args.config, "--output-dir", outdir])
        result["wall_s"] = time.perf_counter() - t0
        result["rc"] = rc
        result["probe_s"].append(probe())
        if tracer is not None:
            with open(args.trace, "w", encoding="utf-8") as fh:
                json.dump(tracer.spans, fh)
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
