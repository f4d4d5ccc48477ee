"""One fresh interpreter per measurement, started by run.py.

    child.py parse CONFIG       import sporesim and parse CONFIG, nothing else
    child.py run CLI-ARGS...    sporesim.cli.main(["run", *CLI-ARGS]); the last
                                stdout line is {"rc", "wall_s", "maxrss_kb"}

`wall_s` times the CLI entry point alone; the interpreter start and the
imports are what the `parse` mode measures as set-up.
"""

from __future__ import annotations

import json
import sys
import time


def peak_rss_kb() -> int:
    """Peak resident set of this process image.  ru_maxrss is not used: on
    Linux it keeps the high-water mark of the parent that forked us."""
    with open("/proc/self/status", encoding="ascii") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise RuntimeError("no VmHWM in /proc/self/status")


def main(argv: list[str]) -> int:
    mode, rest = argv[0], argv[1:]
    if mode == "parse":
        import sporesim  # noqa: F401
        from sporesim.cli import parse_config

        with open(rest[0], encoding="utf-8") as f:
            parse_config(f.read())
        return 0
    if mode != "run":
        raise SystemExit(f"unknown mode {mode!r}")
    from sporesim.cli import main as cli_main

    start = time.perf_counter()
    rc = cli_main(["run", *rest])
    wall = time.perf_counter() - start
    sys.stdout.flush()
    print(json.dumps({"rc": rc, "wall_s": wall, "maxrss_kb": peak_rss_kb()}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
