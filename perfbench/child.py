"""Run one ``pplr`` command under the outside-in tracer.

    python3 perfbench/child.py SPANS_OUT COMMAND [ARGS...]

The command runs as ``pplr.cli.main([COMMAND, ARGS...])`` inside a root
span named ``cli.main``; the spans are written to SPANS_OUT as JSON lines
when the command returns, and the process exits with the command's code.
"""

import sys

from tracer import Tracer, write_spans


def main(argv) -> int:
    spans_out, cli_args = argv[0], argv[1:]
    import pplr.cli

    tracer = Tracer()
    tracer.install()
    root = tracer.open("cli.main")
    root["counts"]["command"] = cli_args[0]
    try:
        code = pplr.cli.main(cli_args)
    finally:
        tracer.close(root)
        tracer.uninstall()
        write_spans(tracer.take(), spans_out)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
