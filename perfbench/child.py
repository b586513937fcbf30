"""One traced ``gspe`` CLI invocation.

    python perfbench/child.py SPANS.json OP_ID SPAWN_TIME run|sweep CONFIG.json

SPAWN_TIME is the parent's ``time.perf_counter()`` just before the spawn (the
clock is system-wide), so interpreter start-up is the ``cli.startup`` span.
Times ``import gspe.cli`` as the ``cli.import`` span, rebinds the layer
wrappers, runs ``gspe.cli.main`` on the remaining arguments and writes the
spans, counts and Fourier cache statistics to SPANS.json.  Exits with the
CLI's own exit code.
"""
import json
import sys
import time

from layers import Tracer


def main() -> int:
    now = time.perf_counter()
    out, op, spawned = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    tracer = Tracer(op)
    tracer.spans.append(["cli.startup", op, -1, spawned, now])
    with tracer.span("cli.import"):
        import gspe.cli
    tracer.install()
    code = gspe.cli.main(sys.argv[4:])
    hits, misses = tracer.cache_info()
    with open(out, "w", encoding="utf-8") as fh:
        json.dump({"spans": tracer.spans, "counts": tracer.counts,
                   "cache": [hits, misses], "gspe": gspe.cli.__file__}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
