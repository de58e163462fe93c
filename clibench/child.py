"""Child process for one benchmarked snverify command.

    python3 child.py FD TRACE_FILE ARG...

Imports snverify.cli, writes "<start> <import done> <CPU seconds so far>"
(time.monotonic seconds, comparable across processes) to file descriptor
FD, then runs snverify.cli.main(ARG...) exactly as the console script
would.  With a
TRACE_FILE other than "-", the snverify modules are wrapped by
spans.Tracer after the import, and the span summary is written to
TRACE_FILE once main has returned.  Stdout carries only the command's own
output either way.
"""

import os
import sys
import time


def main() -> int:
    start = time.monotonic()
    import snverify.cli

    imported = time.monotonic()
    import resource

    usage = resource.getrusage(resource.RUSAGE_SELF)
    fd, trace_file, argv = int(sys.argv[1]), sys.argv[2], sys.argv[3:]
    os.write(fd, f"{start!r} {imported!r} {usage.ru_utime + usage.ru_stime!r}\n".encode())
    os.close(fd)
    if trace_file == "-":
        return snverify.cli.main(argv)

    import json

    from spans import Tracer

    tracer = Tracer()
    tracer.install()
    main_start = time.monotonic()
    try:
        code = snverify.cli.main(argv)
    finally:
        sys.stdout.flush()
        summary = tracer.summary()
        summary["main_s"] = time.monotonic() - main_start
        summary["import_s"] = imported - start
        with open(trace_file, "w") as fh:
            json.dump(summary, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
