"""Run one program entry point under a call profiler and save what it reached.

    python tests/reach/_probe.py OUT.json script PATH [ARG ...]
    python tests/reach/_probe.py OUT.json module NAME [ARG ...]

Every Python function entered while the entry point runs is recorded by
its code object's ``(co_filename, co_firstlineno)``; the ones under
``repro`` are written to ``OUT.json`` as a list of ``[path, line]``
pairs, with the entry point's exit code (``"crashed"`` when it raised).
``tests/reach/reach.py`` starts one of these per entry point and merges
the files.
"""

from __future__ import annotations

import json
import os
import runpy
import sys
import threading
import traceback


def main() -> int:
    out, kind, target, *args = sys.argv[1:]
    seen: set = set()

    def profile(frame, event, arg):
        if event == "call":
            code = frame.f_code
            seen.add((code.co_filename, code.co_firstlineno))

    sys.argv = [target, *args]
    code = 0
    threading.setprofile(profile)
    sys.setprofile(profile)
    try:
        if kind == "module":
            runpy.run_module(target, run_name="__main__", alter_sys=True)
        else:
            sys.path.insert(0, os.path.dirname(os.path.abspath(target)))
            runpy.run_path(target, run_name="__main__")
    except SystemExit as stop:
        code = stop.code if isinstance(stop.code, int) else (
            0 if stop.code is None else 1)
    except Exception:
        traceback.print_exc()
        code = "crashed"
    finally:
        sys.setprofile(None)
        threading.setprofile(None)
        marker = os.sep + "repro" + os.sep
        reached = sorted([os.path.abspath(path), line]
                         for path, line in seen if marker in path)
        with open(out, "w") as handle:
            json.dump({"exit": code, "reached": reached}, handle)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
