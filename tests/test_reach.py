"""The reach ledger, checked without a reach run.

``benchmarks/reach.py`` runs the program's drivers and flags every function
body under ``src/repro`` none of them entered; each such body has an entry
in ``benchmarks/reach_ledger.json`` that names its fate.  The run itself is
the CI ``reach`` job.  What needs no full run is checked here: every entry
names a def that exists, the ledger holds no more entries than its ceiling,
every fate has one of the listed forms, every test a fate names exists,
the verdict names each kind of fault, and the def enumerator keys and
names a def as the interpreter's own code objects do.
The hook and the driver loop are checked on small programs: the hook
records the code objects a process and its child processes enter, the
loop keys what they entered under ``src/repro``, and a failing driver
gives no verdict.
"""

import importlib.util
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
FIXTURE = Path(__file__).parent / "reach_fixture.py"


def _load(path: Path, name: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reach = _load(ROOT / "benchmarks" / "reach.py", "reach")
LEDGER = reach.load_ledger()


def _fate_tests():
    """The test node ids the ledger's fates name."""
    found = set()
    for fate in LEDGER.values():
        match = re.fullmatch(reach.FATES[0], fate)
        if match:
            found.add(match.group("test"))
    return found


#: the ledger's entries at most: a new body no driver reaches has to raise
#: this ceiling in the same reviewed diff that adds its entry
LEDGER_CEILING = 100


def test_the_ledger_does_not_grow():
    assert len(LEDGER) <= LEDGER_CEILING, len(LEDGER)


def test_every_entry_names_a_def():
    defs = {f"{path}::{name}"
            for (path, _), (name, _) in reach.catalogue().items()}
    assert sorted(LEDGER.keys() - defs) == []


def test_every_fate_has_a_listed_form():
    odd = {name: fate for name, fate in LEDGER.items()
           if not any(re.fullmatch(form, fate) for form in reach.FATES)}
    assert odd == {}


def test_every_test_a_fate_names_exists():
    named = _fate_tests()
    if not named:
        return
    files = sorted({node.split("::")[0] for node in named})
    collected = set(subprocess.run(
        [sys.executable, "-m", "pytest", "--collect-only", "-q",
         "-p", "no:cacheprovider", *files],
        cwd=ROOT, capture_output=True, text=True, check=True,
    ).stdout.splitlines())
    missing = [node for node in sorted(named) if node not in collected
               and not any(c.startswith(node + "[") for c in collected)]
    assert missing == []


def test_the_verdict_names_each_fault():
    defs = {("a.py", 1): ("f", 2), ("a.py", 5): ("g", 3),
            ("a.py", 9): ("h", 1)}
    ledger = {"a.py::f": "reached", "a.py::g": "unreached",
              "a.py::gone": "deleted"}
    assert reach.verdict(defs, {("a.py", 1)}, ledger) == [
        "unreached, no ledger entry: a.py::h",
        "stale ledger entry, its body is reached: a.py::f",
        "stale ledger entry, it names no def: a.py::gone"]
    assert reach.verdict(defs, {("a.py", 1), ("a.py", 9)},
                         {"a.py::g": "unreached"}) == []


def test_the_enumerator_keys_defs_as_their_code_objects_do():
    fixture = _load(FIXTURE, "reach_fixture")
    functions = [
        fixture.traced,
        fixture.decorated,               # the wrapper traced made
        fixture.decorated.__wrapped__,   # the decorated def itself
        fixture.Box.__init__,
        fixture.Box.size.fget,
        fixture.Box.outer,
        fixture.Box().outer(),           # the nested def
    ]
    runtime = {(fn.__code__.co_firstlineno, fn.__qualname__)
               for fn in functions}
    enumerated = {(first, name) for first, name, _ in
                  reach.definitions(FIXTURE.read_text())}
    assert enumerated == runtime
    assert (12, "decorated") in enumerated   # the decorator's line
    assert (26, "Box.outer.<locals>.inner") in enumerated


def test_no_two_defs_of_a_file_share_a_name():
    # an entry names its body by path and qualified name, so two defs of
    # one name in a file would read as one body, reached and unreached
    names = [(path, name) for (path, _), (name, _) in
             reach.catalogue().items()]
    assert len(names) == len(set(names))


def _hooked_run(tmp_path, code):
    """Run ``python -c code`` under the hook, the fixture importable; the
    ``{pid: {(file, first line)}}`` its processes entered."""
    site, out = tmp_path / "site", tmp_path / "entered"
    site.mkdir()
    out.mkdir()
    (site / "sitecustomize.py").write_text(reach.HOOK)
    env = dict(os.environ, REPRO_REACH_OUT=str(out),
               PYTHONPATH=os.pathsep.join([str(site), str(FIXTURE.parent)]))
    subprocess.run([sys.executable, "-c", code], cwd=tmp_path, env=env,
                   check=True)
    entered = {}
    for dump in out.iterdir():
        rows = (row.split(" ", 1) for row in dump.read_text().splitlines())
        entered[dump.stem] = {(os.path.realpath(name), int(line))
                              for line, name in rows}
    return entered


def _fixture_lines(entered):
    fixture = os.path.realpath(FIXTURE)
    return {line for name, line in entered if name == fixture}


def test_the_hook_records_the_code_objects_a_process_enters(tmp_path):
    (entered,) = _hooked_run(
        tmp_path, "import reach_fixture as f; f.decorated(); f.Box().size"
    ).values()
    fixture = _load(FIXTURE, "reach_fixture")
    called = {fixture.traced, fixture.decorated,
              fixture.decorated.__wrapped__, fixture.Box.__init__,
              fixture.Box.size.fget}
    lines = _fixture_lines(entered)
    assert {fn.__code__.co_firstlineno for fn in called} <= lines
    assert fixture.Box.outer.__code__.co_firstlineno not in lines


def test_the_hook_follows_a_driver_into_its_child_processes(tmp_path):
    entered = _hooked_run(tmp_path, (
        "import subprocess, sys; subprocess.run([sys.executable, '-c', "
        "'import reach_fixture as f; f.decorated()'], check=True)"))
    assert len(entered) == 2       # the driver and its child each dumped
    fixture = _load(FIXTURE, "reach_fixture")
    line = fixture.decorated.__wrapped__.__code__.co_firstlineno
    assert sorted(line in _fixture_lines(e) for e in entered.values()) \
        == [False, True]


def test_the_drivers_are_the_examples_e2e_and_the_benchmark_modules(
        tmp_path):
    found = list(reach.drivers(tmp_path))
    examples = sorted((ROOT / "examples").glob("*.py"))
    modules = sorted((ROOT / "benchmarks").glob("test_*.py"))
    assert [name for name, _, _ in found] == (
        [p.name for p in examples] + ["e2e --quick"]
        + [p.name for p in modules])
    for script, (_, argv, cwd) in zip(examples, found):
        assert argv[-1] == str(script)
        assert cwd.parent == tmp_path and list(cwd.iterdir()) == []
    for _, argv, _ in found[len(examples) + 1:]:
        assert "--benchmark-disable" in argv


def test_the_driver_loop_keys_what_it_entered_under_src(tmp_path,
                                                        monkeypatch):
    def drivers(work):
        yield "ids", [sys.executable, "-c", (
            "from repro.utils import IdRegistry; "
            "IdRegistry().generate('task')")], work

    monkeypatch.setattr(reach, "drivers", drivers)
    entered = reach.run_drivers(tmp_path)
    names = {key: name for key, (name, _) in reach.catalogue().items()}
    assert {names.get(key) for key in entered} >= {
        "IdRegistry.__init__", "IdRegistry.generate"}
    assert all((reach.PACKAGE / path).is_file() for path, _ in entered)


def test_a_failing_driver_gives_no_verdict(tmp_path, monkeypatch, capsys):
    after = tmp_path / "after"

    def drivers(work):
        yield "boom", [sys.executable, "-c", "raise SystemExit(3)"], work
        yield "after", [sys.executable, "-c",
                        f"open({str(after)!r}, 'w').close()"], work

    monkeypatch.setattr(reach, "drivers", drivers)
    assert reach.main() == 1
    err = capsys.readouterr().err
    assert "driver boom exited 3" in err
    assert "no verdict from a partial run" in err
    assert not after.exists()      # the loop stopped at the failure
