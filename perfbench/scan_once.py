"""Run one ``pupsec`` CLI call in a fresh interpreter and measure it.

Usage: python3 perfbench/scan_once.py scan DIR --out FILE [options]

The arguments are passed unchanged to ``pupsec.cli.main``.  The last
line of standard output is ``{"exit": code, "cpu_s": s}``, where ``s``
is the CPU time of ``main`` alone, over all its threads and any worker
processes it waited for.  Interpreter start-up and the import of
``pupsec.cli`` are measured separately as set-up time.
"""

import json
import resource
import sys
import time

from pupsec.cli import main


def _cpu_s() -> float:
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


if __name__ == "__main__":
    start = _cpu_s()
    code = main(sys.argv[1:])
    print(json.dumps({"exit": code, "cpu_s": _cpu_s() - start}))
