"""Start ``repro serve`` with the layer tracer installed; write spans on exit.

    python3 -m perfbench.serve_launcher --spans FILE --seed S -- serve ring --seed S ...

The wrappers go in before ``repro.cli.main`` builds the session, so every
layer of the daemon is traced from its first call.  ``--seed`` repeats the
daemon's seed so decoded requests can be tagged with their lane seed.
``main`` returns after the SIGTERM drain has answered every accepted query,
and only then are the spans written.
"""

from __future__ import annotations

import argparse
import sys


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    split = argv.index("--")
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--spans", required=True)
    parser.add_argument("--seed", type=int, required=True, help="the daemon's --seed")
    args = parser.parse_args(argv[:split])

    from perfbench import tracer as tracing
    from repro import cli
    from repro.session import derive_query_seed

    tracer = tracing.Tracer()
    tracing.install(tracer, lambda s, t, n: derive_query_seed(args.seed, s, t, n))

    try:
        return cli.main(argv[split + 1:])
    finally:
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
