"""Traced stand-in for `python -m relaygain.cli`, used by the traced cli_queries pass.

    python3 bench/clihook.py SPANS_JSON KIND CLI_ARGS...

Imports relaygain.cli, installs the span wrappers, runs main(CLI_ARGS)
inside a `cli.main.KIND` span, restores the wrappers and writes the
spans to SPANS_JSON at exit. Exit code and stdout are those of main().
"""

import sys

import spans


def main(argv):
    spans_file, kind, cli_argv = argv[0], argv[1], argv[2:]
    from relaygain.cli import main as cli_main
    tracer = spans.Tracer()
    tracer.install()
    try:
        with tracer.span(f"cli.main.{kind}"):
            code = cli_main(cli_argv)
    finally:
        tracer.restore()
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
