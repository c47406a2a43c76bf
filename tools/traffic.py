"""Which lines of the ``dcboost`` package a script executes.

Usage (from anywhere)::

    python3 tools/traffic.py HITS.json -- SCRIPT [ARGS ...]
    python3 tools/traffic.py HITS.json --report

The first form runs SCRIPT in this process, as ``python SCRIPT ARGS``
would (``sys.argv`` and ``sys.path[0]`` set alike, ``__name__`` is
``"__main__"``), under ``sys.settrace``.  It records every line of
``src/dcboost/*.py`` in this checkout that runs, in any thread started
after the trace is set, and merges them into HITS.json (made if absent),
so several runs add up.  Only the script's own process is traced: work a
script hands to subprocesses is not recorded.  The script's exit status
is this command's; a script that ends in an uncaught exception records
nothing.

The second form lists, per module, the executable lines that HITS.json
does not hold, each with its text, and then the recorded and executable
line counts.  A module's executable lines are those its compiled code
objects map an instruction to (``co_lines``), so a line that holds only
a comment, a docstring's continuation or a closing bracket is none.
"""

import argparse
import json
import runpy
import sys
import threading
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "dcboost"


def _module_names():
    return sorted(path.name for path in PACKAGE.glob("*.py"))


def _code_lines(code):
    """Line numbers of code and of every code object nested in it."""
    # a module's first instruction maps to line 0, which holds no code
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def executable_lines(name):
    path = PACKAGE / name
    return _code_lines(compile(path.read_text(encoding="utf-8"), str(path), "exec"))


def trace_script(script, args):
    """Run script with args under a line tracer; return (exit status,
    {module name: set of executed lines})."""
    names = {PACKAGE / name: name for name in _module_names()}
    hits = {name: set() for name in names.values()}
    # a code object's file name, as imported, to its module's line tracer,
    # or None outside the package, whose frames then cost little
    files = {}

    def line_tracer(lines):
        def local(frame, event, arg):
            lines.add(frame.f_lineno)
            return local
        return local

    def global_(frame, event, arg):
        filename = frame.f_code.co_filename
        if filename not in files:
            name = names.get(Path(filename).resolve())
            files[filename] = None if name is None else line_tracer(hits[name])
        local = files[filename]
        # a "call" event carries the def line, which co_lines maps the
        # code object's first instruction to
        return None if local is None else local(frame, event, arg)

    script = Path(script).resolve()
    saved_argv, saved_path0 = sys.argv, sys.path[0]
    sys.argv, sys.path[0] = [str(script), *args], str(script.parent)
    threading.settrace(global_)
    sys.settrace(global_)
    try:
        runpy.run_path(str(script), run_name="__main__")
        status = None
    except SystemExit as exc:
        status = exc.code  # sys.exit() reads it as the interpreter would
    finally:
        sys.settrace(None)
        threading.settrace(None)
        sys.argv, sys.path[0] = saved_argv, saved_path0
    return status, hits


def merge(path, hits):
    """Add hits to the record file at path, creating it if absent."""
    path = Path(path)
    recorded = json.loads(path.read_text()) if path.exists() else {}
    for name, lines in hits.items():
        recorded[name] = sorted(set(recorded.get(name, ())) | lines)
    path.write_text(json.dumps(recorded, indent=1, sort_keys=True) + "\n")


def report(path):
    """Print each module's executable lines that the record file lacks."""
    recorded = json.loads(Path(path).read_text())
    total_hit = total = 0
    for name in _module_names():
        executable = executable_lines(name)
        missed = sorted(executable - set(recorded.get(name, ())))
        total_hit += len(executable) - len(missed)
        total += len(executable)
        print(f"{name}: {len(executable) - len(missed)} of {len(executable)} "
              f"executable lines recorded")
        text = (PACKAGE / name).read_text(encoding="utf-8").splitlines()
        for line in missed:
            print(f"  {line:4d}  {text[line - 1].strip()}")
    print(f"total: {total_hit} of {total} executable lines recorded")


def main(argv=None):
    argv = sys.argv[1:] if argv is None else argv
    command = []
    if "--" in argv:
        at = argv.index("--")
        argv, command = argv[:at], argv[at + 1:]
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("hits", help="JSON record of executed lines")
    parser.add_argument("--report", action="store_true",
                        help="list the executable lines the record lacks")
    args = parser.parse_args(argv)
    if args.report == bool(command):
        parser.error("give either --report or -- SCRIPT [ARGS ...]")
    if args.report:
        report(args.hits)
        return 0
    status, hits = trace_script(command[0], command[1:])
    merge(args.hits, hits)
    return status


if __name__ == "__main__":
    sys.exit(main())
