"""Run ``python -m minksub.cli ARGS`` in this interpreter, sampling speed.

    python cold_child.py SAMPLES_FILE ARGS...

Runs ``minksub.cli`` as ``__main__`` exactly as ``-m`` would, while a
SIGALRM handler times the reference kernel of ``calibrate.py`` every
50 ms (never while it writes its output); the kernel times go to
SAMPLES_FILE as a JSON list when the CLI exits.  The exit code and output
are the CLI's own.
"""

import json
import runpy
import signal
import sys
from pathlib import Path

import calibrate


class _Unsampled:
    """A text stream whose writes run with SIGALRM blocked.

    A sample that lands while a large report is being written to a full
    pipe interrupts the write, and output was seen to come out garbled.
    """

    def __init__(self, stream):
        self._stream = stream

    def write(self, text):
        old = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGALRM})
        try:
            return self._stream.write(text)
        finally:
            signal.pthread_sigmask(signal.SIG_SETMASK, old)

    def __getattr__(self, name):
        return getattr(self._stream, name)


def main() -> None:
    samples = Path(sys.argv[1])
    sys.argv = [sys.argv[0], *sys.argv[2:]]
    sys.stdout = _Unsampled(sys.stdout)
    sys.stderr = _Unsampled(sys.stderr)
    sampler = calibrate.Sampler()
    sampler.start()
    try:
        runpy.run_module("minksub.cli", run_name="__main__", alter_sys=True)
    finally:
        sampler.stop()
        samples.write_text(json.dumps([k for _, k in sampler.samples]))


if __name__ == "__main__":
    main()
