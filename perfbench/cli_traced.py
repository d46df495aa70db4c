"""Run one nbase CLI command with every nbase module traced.

    python perfbench/cli_traced.py ARGS...

behaves like ``nbase ARGS...`` and writes the command's spans to
``$PERFBENCH_TRACE_DIR/cmd-<pid>.json`` and ``.bin`` (format in tracing.py).
"""

import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path[:0] = [os.path.join(os.path.dirname(HERE), "src"), HERE]

import nbase.cli  # noqa: E402
import tracing  # noqa: E402

if __name__ == "__main__":
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        code = nbase.cli.main(sys.argv[1:])
    finally:
        tracer.dump(os.path.join(os.environ["PERFBENCH_TRACE_DIR"],
                                 "cmd-%d" % os.getpid()), tracer.summary())
    sys.exit(code)
