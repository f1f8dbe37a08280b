#!/usr/bin/env python3
"""Which function bodies under ``src/repro`` the program's own drivers run.

A body stays in ``src/`` only if something the runtime runs reaches it.
``python benchmarks/reach.py`` runs every driver --

* each ``examples/*.py`` script, from its own empty working directory;
* ``benchmarks/e2e/run.py --quick``: every workload untraced and traced,
  each repetition in its own ``rep.py`` subprocess;
* every ``benchmarks/test_*.py`` module under ``pytest --benchmark-disable``
  (without that flag pytest-benchmark times a body in rounds the hook does
  not need)

-- with a function-level hook installed in every Python process they start
(``sys.monitoring`` on 3.12+, ``sys.setprofile`` before; see :data:`HOOK`),
through a ``sitecustomize`` module on ``PYTHONPATH`` (``run.py`` keeps
``PYTHONPATH`` for its subprocesses).  Each process writes the ``(file,
first line)`` of every code object it entered.

Every ``def`` under ``src/repro`` is keyed by its file and first line
(its first decorator's line when it has one: a code object's
``co_firstlineno``) and named by its qualified name, read off the AST
(``co_qualname`` is 3.11+).  A body no driver entered is *unreached*;
each one has an entry in ``benchmarks/reach_ledger.json``,
``"<path under src/repro>::<qualified name>": "<fate>"``, whose fate is
one of :data:`FATES`.

Exit status 0 when every unreached body has an entry and every entry's
body is unreached; 1, naming the cause, when an unreached body has no
entry, when an entry's body is now reached or gone (a stale entry), or
when a driver fails (a partial run gives no verdict).
"""

from __future__ import annotations

import ast
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Dict, Iterator, List, Set, Tuple

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "repro"
LEDGER = ROOT / "benchmarks" / "reach_ledger.json"

#: the forms a ledger entry's fate takes (a regular expression each)
FATES = (
    # a fault, cancel, timeout, error path or invariant probe
    r"reached by (?P<test>tests/\S+\.py::\S+) when .+",
    r"a read API that README documents: .+",
    r"the on-disk form that README documents: .+",
    r"named by the fixed benchmark: benchmarks/e2e/layer_trace\.py",
    r"a protocol method: (__repr__|__eq__|__len__|__iter__)",
)

#: installed in every driver process as ``sitecustomize``.  Where
#: ``sys.monitoring`` exists (3.12+) a code object's first start is recorded
#: and its event disabled, so each code object costs the hook once and the
#: drivers' wall-clock gates keep their margins; before 3.12 the profile
#: hook sees every call: on CPython 3.11 it made the event kernel 4x and a
#: minimal heap kernel 2x slower per event, and test_micro_kernels' gate
#: read 1.1-2.0x against its 1.5x bound (0.76x unhooked).
HOOK = '''\
import atexit, os, sys, threading

_entered = set()
_add = _entered.add


def _dump():
    entered = list(_entered)  # the hook still adds while this runs
    path = os.path.join(os.environ["REPRO_REACH_OUT"], f"{os.getpid()}.txt")
    with open(path, "w") as fh:
        fh.writelines(f"{line} {name}\\n" for name, line in entered)


atexit.register(_dump)
if hasattr(sys, "monitoring"):
    _mon = sys.monitoring

    def _start(code, offset):
        _add((code.co_filename, code.co_firstlineno))
        return _mon.DISABLE

    _mon.use_tool_id(_mon.COVERAGE_ID, "reach")
    _mon.register_callback(_mon.COVERAGE_ID, _mon.events.PY_START, _start)
    _mon.set_events(_mon.COVERAGE_ID, _mon.events.PY_START)
else:
    def _hook(frame, event, arg):
        if event == "call":
            code = frame.f_code
            _add((code.co_filename, code.co_firstlineno))

    threading.setprofile(_hook)
    sys.setprofile(_hook)
'''

Key = Tuple[str, int]  # (path under src/repro, first line)


def definitions(source: str) -> Iterator[Tuple[int, str, int]]:
    """``(first line, qualified name, lines)`` of every ``def`` in *source*.

    The first line is the first decorator's, as ``co_firstlineno`` has it;
    the qualified name is ``__qualname__``'s (``f.<locals>.g``, ``C.m``).
    """
    def walk(node: ast.AST, prefix: str) -> Iterator[Tuple[int, str, int]]:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                first = min([d.lineno for d in child.decorator_list]
                            + [child.lineno])
                yield first, name, child.end_lineno - first + 1
                yield from walk(child, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                yield from walk(child, prefix + child.name + ".")
            else:
                yield from walk(child, prefix)
    return walk(ast.parse(source), "")


def catalogue() -> Dict[Key, Tuple[str, int]]:
    """``{(path, first line): (qualified name, lines)}`` under src/repro."""
    found = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        rel = path.relative_to(PACKAGE).as_posix()
        for first, name, lines in definitions(path.read_text()):
            found[rel, first] = (name, lines)
    return found


def load_ledger() -> Dict[str, str]:
    return json.loads(LEDGER.read_text())


def drivers(work: Path) -> Iterator[Tuple[str, List[str], Path]]:
    """``(name, argv, cwd)`` of every driver."""
    for script in sorted((ROOT / "examples").glob("*.py")):
        cwd = work / script.stem
        cwd.mkdir()
        yield script.name, [sys.executable, str(script)], cwd
    yield "e2e --quick", [sys.executable, str(ROOT / "benchmarks/e2e/run.py"),
                          "--quick", "--out", str(work / "e2e")], ROOT
    for module in sorted((ROOT / "benchmarks").glob("test_*.py")):
        yield module.name, [sys.executable, "-m", "pytest", "-q",
                            "-p", "no:cacheprovider", "--benchmark-disable",
                            str(module)], ROOT


def run_drivers(work: Path) -> Set[Key]:
    """Run every driver under the hook; the ``(path, line)`` keys entered.

    Raises ``RuntimeError`` naming the first driver that fails."""
    site = work / "site"
    site.mkdir()
    (site / "sitecustomize.py").write_text(HOOK)
    out = work / "entered"
    out.mkdir()
    env = dict(os.environ, REPRO_REACH_OUT=str(out),
               PYTHONPATH=os.pathsep.join([str(site), str(ROOT / "src")]))
    for name, argv, cwd in drivers(work):
        start = time.perf_counter()
        proc = subprocess.run(argv, cwd=str(cwd), env=env, text=True,
                              stdout=subprocess.PIPE,
                              stderr=subprocess.STDOUT)
        print(f"  {name:<40} {time.perf_counter() - start:6.1f} s",
              flush=True)
        if proc.returncode != 0:
            raise RuntimeError(f"driver {name} exited {proc.returncode}:\n"
                               f"{proc.stdout[-3000:]}")
    entered = set()
    prefix = str(PACKAGE) + os.sep
    for dump in out.iterdir():
        for row in dump.read_text().splitlines():
            line, filename = row.split(" ", 1)
            filename = os.path.realpath(filename)
            if filename.startswith(prefix):
                entered.add((Path(filename).relative_to(PACKAGE).as_posix(),
                             int(line)))
    return entered


def verdict(defs: Dict[Key, Tuple[str, int]], entered: Set[Key],
            ledger: Dict[str, str]) -> List[str]:
    """The faults: unreached bodies without an entry, stale entries (their
    body is reached, or gone)."""
    unreached = {f"{path}::{defs[path, line][0]}"
                 for path, line in defs.keys() - entered}
    reached = {f"{path}::{defs[path, line][0]}"
               for path, line in defs.keys() & entered}
    faults = [f"unreached, no ledger entry: {name}"
              for name in sorted(unreached - ledger.keys())]
    faults += [f"stale ledger entry, its body is reached: {name}"
               for name in sorted(reached & ledger.keys())]
    faults += [f"stale ledger entry, it names no def: {name}"
               for name in sorted(ledger.keys() - unreached - reached)]
    return faults


def main() -> int:
    start = time.perf_counter()
    defs = catalogue()
    ledger = load_ledger()
    with tempfile.TemporaryDirectory(prefix="repro-reach-") as tmp:
        try:
            entered = run_drivers(Path(tmp))
        except RuntimeError as exc:
            print(f"FAILED: {exc}\nno verdict from a partial run",
                  file=sys.stderr)
            return 1
    unreached = defs.keys() - entered
    print(f"{len(defs)} bodies under src/repro, {len(unreached)} unreached "
          f"({sum(defs[key][1] for key in unreached)} lines), "
          f"{len(ledger)} ledger entries; "
          f"{time.perf_counter() - start:.0f} s")
    faults = verdict(defs, entered, ledger)
    for fault in faults:
        print(fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
