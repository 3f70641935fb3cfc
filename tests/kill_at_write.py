"""Run ``streamgate.cli.main`` and kill the process at one of its file writes.

    python kill_at_write.py N WHEN -- <streamgate arguments>

``streamgate.cli.write_atomic`` is replaced so that its N-th call ends the
process with ``os._exit(137)``, the status a shell reports for SIGKILL: no
``finally`` block, ``atexit`` hook or buffer flush runs.  WHEN says what
that write leaves first: ``before`` (nothing), ``during`` (``<path>.tmp``
holding the first half of the text, as a kill inside the write leaves it)
or ``after`` (the whole write, renamed into place).  A run that makes
fewer than N writes exits with ``main``'s own code.
"""

import os
import sys

import streamgate.cli as cli


def main(argv: list[str]) -> int:
    n, when, sep, *args = argv
    if sep != "--" or when not in ("before", "during", "after"):
        raise SystemExit(__doc__)
    write, calls = cli.write_atomic, 0

    def killing_write(path, text: str) -> None:
        nonlocal calls
        calls += 1
        if calls == int(n):
            if when == "during":
                with open(f"{path}.tmp", "w") as fh:
                    fh.write(text[:len(text) // 2])
            elif when == "after":
                write(path, text)
            os._exit(137)
        write(path, text)

    cli.write_atomic = killing_write
    return cli.main(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
