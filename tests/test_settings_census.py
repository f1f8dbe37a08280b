"""Every setting of the runtime's config objects has a caller that sets it.

An option stays only if a non-test caller uses it: ``src/repro`` itself, a
``benchmarks/`` module or an ``examples/`` script.  This census reads their
source (no import, no run) for keyword arguments in calls to the config
classes below and to :class:`Session`; a literal equal to the field's (or
the keyword's) default does not count as setting it.  A tuning value that
only tests change is a module constant instead, which a test patches.  The
few fields no caller sets yet are on :data:`ALLOWED`, each with its reason.
"""

import ast
import dataclasses
import inspect
from pathlib import Path

from repro import (
    DataConfig,
    FaultModel,
    ObservabilityConfig,
    PilotResubmitPolicy,
    ResilienceConfig,
    RetryPolicy,
    Session,
)

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src/repro", "benchmarks", "examples")
CLASSES = {cls.__name__: cls for cls in (
    ObservabilityConfig, ResilienceConfig, RetryPolicy, PilotResubmitPolicy,
    DataConfig, FaultModel, Session)}

#: (class, field) -> why it stays although no non-test caller sets it
ALLOWED = {
    ("FaultModel", name): (
        "an adversary mode of the fault injector: the task-path state "
        "machine draws node degrades, and the composed-fault machine for "
        "the service and data planes is to drive the rest")
    for name in ("degraded_fraction", "link_flap_mtbf_s",
                 "transfer_corrupt_prob", "service_crash_mtbf_s",
                 "wipe_cache_on_pilot_loss")}


def _defaults(cls):
    if not dataclasses.is_dataclass(cls):  # Session: its keywords
        return {name: param.default for name, param
                in inspect.signature(cls).parameters.items()}
    return {f.name: (f.default if f.default is not dataclasses.MISSING
                     else f.default_factory())
            for f in dataclasses.fields(cls)}


def _called_name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def settings_set():
    """(class, field) pairs some non-test caller sets to a non-default."""
    defaults = {name: _defaults(cls) for name, cls in CLASSES.items()}
    found = set()
    for base in CALLERS:
        for path in sorted((ROOT / base).rglob("*.py")):
            text = path.read_text()
            if not any(name + "(" in text for name in CLASSES):
                continue
            for node in ast.walk(ast.parse(text)):
                if not isinstance(node, ast.Call):
                    continue
                name = _called_name(node.func)
                if name not in CLASSES:
                    continue
                for kw in node.keywords:
                    if kw.arg is None:  # ``**kwargs``: nothing to read
                        continue
                    try:
                        value = ast.literal_eval(kw.value)
                    except ValueError:  # a name or an expression: set
                        found.add((name, kw.arg))
                        continue
                    if value != defaults[name].get(kw.arg):
                        found.add((name, kw.arg))
    return found


def test_every_setting_has_a_non_test_caller():
    found = settings_set()
    unset = sorted((name, field) for name, cls in CLASSES.items()
                   for field in _defaults(cls)
                   if (name, field) not in found
                   and (name, field) not in ALLOWED)
    assert unset == [], (
        "settable, but no non-test caller sets them; make each a module "
        f"constant or name its caller: {unset}")


def test_allowed_entries_are_unset_fields():
    found = settings_set()
    for name, field in ALLOWED:
        assert field in _defaults(CLASSES[name]), (name, field)
        assert (name, field) not in found, (
            f"{name}.{field} now has a caller; drop it from ALLOWED")
