"""``repro serve`` with the benchmark's layer wrappers installed.

    python3 perfbench/tracedaemon.py SPANS_DIR serve --port 0 ...

Installs :mod:`tracing` before the daemon imports or builds anything
else, runs the ordinary CLI, and on shutdown writes the daemon's spans
to *SPANS_DIR* for the benchmark to collect.
"""

import sys

import tracing


def main() -> int:
    recorder = tracing.Recorder(sys.argv[1]).install()
    from repro import cli
    try:
        return cli.main(sys.argv[2:])
    finally:
        recorder.uninstall()
        recorder.flush()


if __name__ == "__main__":
    sys.exit(main())
