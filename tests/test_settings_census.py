"""Every parameter of the public API has a caller that sets it.

An option or a path stays only if a non-test caller uses it: ``src/repro``
itself, a ``benchmarks/`` module (``benchmarks/e2e/`` included) or an
``examples/`` script.  The census catalogues every class, method and function exported
through an ``__all__`` under :mod:`repro` -- a class's constructor, its
public methods (inherited ones from ``repro`` bases included) -- and reads
the callers' source (no run) for calls to them by name.  A keyword sets the
parameter it names; a positional argument sets the parameter in its place.
A literal equal to the parameter's default does not count as setting it.

A tuning value that only tests change is a module (or class) constant
instead, which a test patches.  The few defaulted parameters no caller sets
are on :data:`ALLOWED`, each with one of the reasons in :data:`REASONS`.
Calls are matched by name only, so a parameter counts as set when any
callable of that name gets it: the census can miss a test-only parameter,
never flag a set one.

Whether a function body is reached at all is not read off names: the
drivers of ``benchmarks/reach.py`` run it, and a body none of them enters
has an entry in ``benchmarks/reach_ledger.json`` (the CI ``reach`` job;
``tests/test_reach.py`` checks the ledger's entries without a run).
"""

import ast
import dataclasses
import enum
import functools
import importlib
import inspect
import pkgutil
from pathlib import Path

import repro

ROOT = Path(__file__).resolve().parents[1]
CALLERS = ("src/repro", "benchmarks", "examples")

#: the reasons a defaulted parameter may stay without a non-test caller
REASONS = (
    "a record field",
    "a science-model parameter of a Table I workload",
    "a paper-table value",
    "a deployment address",
    "a read API's filter",
    "the description schemas' from_dict",
    "set through ",
)

#: adversary modes of the fault injector, kept until the composed-fault
#: machine draws them (ROADMAP direction 3)
FAULT_MODES = ("degraded_fraction", "link_flap_mtbf_s",
               "transfer_corrupt_prob", "service_crash_mtbf_s",
               "wipe_cache_on_pilot_loss")

_UQ = "a science-model parameter of a Table I workload: Uncertainty " \
      "Quantification (II-C)"
_CELL = "a science-model parameter of a Table I workload: Cell Painting " \
        "(II-A)"
_SIGNATURE = "a science-model parameter of a Table I workload: " \
             "Mutational Signature Detection (II-B)"
_HOSTS = "set through src/repro/serving/hosts.py:135 (create_host builds " \
         "the class it looks up in HOSTS)"

#: callable -> reason (every flagged parameter of it), or
#: (callable, parameter) -> reason
ALLOWED = {
    **{("FaultModel", name): (
        "an adversary mode of the fault injector: the task-path state "
        "machine draws node degrades, link flaps and corrupt transfers, "
        "and the composed-fault machine for the service and data planes "
        "is to drive the rest")
       for name in FAULT_MODES},
    # records: built field by field by their producers (to_dict/from_dict,
    # the bus, the registry, the attribution engine)
    "BenchResult": "a record field: one benchmark run's structured record",
    "CampaignAttribution": "a record field: built by from_spans",
    "InferenceResultPayload": "a record field: one backend reply",
    "LatencySpec": "a record field: a platform's latency model",
    "Message": "a record field: stamped by the bus on delivery",
    "NodeAttribution": "a record field: built by CampaignAttribution",
    "PlatformSpec": "a record field: a platform's static description, "
                    "also set through with_overrides(**kwargs)",
    "ServiceInfo": "a record field: a registry entry",
    ("Span", "attrs"): (
        "a record field: a span built by hand (the eager reference tracer, "
        "an attribution's input); the tracer's own spans are its rows"),
    "TaskPhases": "a record field: built by the attribution engine",
    ("TaskNode", "failure_tolerance"): (
        "a record field: a campaign node's tolerance, read when its bag "
        "settles"),
    # the description schemas: every field is a keyword of the generated
    # constructor, and from_dict merges a dict under them
    **{name: "a record field: a description's schema field, or the "
             "description schemas' from_dict"
       for name in ("PilotDescription", "ServiceDescription",
                    "StagingDirective", "TaskDescription")},
    # read APIs
    "EndpointRegistry.list_services": "a read API's filter",
    "FaultInjector.faults": "a read API's filter",
    "MetricsRegistry.instruments": "a read API's filter",
    "MetricsRegistry.value": "a read API's filter: the series' labels",
    "Profiler.events": "a read API's filter",
    "Tracer.find": "a read API's filter",
    "UQResult.best_method_for": "a read API's filter: the ranking metric",
    # the use cases' science models
    "BayesianLinearUQ": _UQ,
    "EnsembleUQ": _UQ,
    **{("UQConfig", name): _UQ for name in (
        "models", "methods", "n_classes", "latent_dim", "feature_dim")},
    "make_qa_dataset": _UQ,
    **{("CellPaintingConfig", name): _CELL for name in (
        "augmentations_per_image", "holdout_fraction")},
    "Study": _CELL + ": the HPO study's objective sense",
    "TpeSampler": _CELL,
    "augment": _CELL,
    "generate_dataset": _CELL,
    "GeneModel": _SIGNATURE,
    "PathwayDatabase": _SIGNATURE,
    "PathwayDatabase.synthesise": _SIGNATURE,
    **{("SignatureConfig", name): _SIGNATURE for name in (
        "max_dose_gy", "min_impact", "burden_threshold", "n_genes",
        "n_pathways")},
    "generate_vcf": _SIGNATURE,
    # addresses and indirect callers
    "ServingHost": _HOSTS,
    "OllamaHost": _HOSTS,
    "VllmHost": _HOSTS,
    "TcpServiceServer": "a deployment address: the host and port it binds",
    ("run_service_workload", "max_concurrency"): (
        "set through benchmarks/test_ablation_serving.py:22 (the vLLM "
        "arm's keywords, passed as **kw)"),
}


def _modules():
    yield repro
    for info in pkgutil.walk_packages(repro.__path__, "repro."):
        yield importlib.import_module(info.name)


def _parameters(fn, bound):
    """Settable parameters of *fn* in order (``self``/``cls`` dropped)."""
    params = [p for p in inspect.signature(fn).parameters.values()
              if p.kind not in (p.VAR_POSITIONAL, p.VAR_KEYWORD)]
    return params[1:] if bound else params


def _defaults(cls, params):
    """A dataclass's factory defaults are built; the rest read as is."""
    found = {p.name: p.default for p in params}
    if dataclasses.is_dataclass(cls):
        for f in dataclasses.fields(cls):
            if f.default_factory is not dataclasses.MISSING:
                found[f.name] = f.default_factory()
    return found


def catalogue():
    """``{key: (called name, parameters, defaults)}`` of the public API.

    *key* is the function or class name, or ``Class.method`` (the class
    that defines the method)."""
    found, seen = {}, set()
    for module in _modules():
        for name in getattr(module, "__all__", ()):
            obj = getattr(module, name, None)
            if id(obj) in seen or not getattr(
                    obj, "__module__", "").startswith("repro"):
                continue
            seen.add(id(obj))
            if inspect.isfunction(obj):
                params = _parameters(obj, False)
                found[obj.__name__] = (obj.__name__, params,
                                       _defaults(None, params))
            if not inspect.isclass(obj) or issubclass(obj, enum.Enum):
                continue
            try:
                params = _parameters(obj, False)
            except ValueError:  # an exception: the builtin constructor
                params = []
            found[obj.__name__] = (obj.__name__, params,
                                   _defaults(obj, params))
            for klass in obj.__mro__:
                if not klass.__module__.startswith("repro"):
                    continue
                for attr, member in vars(klass).items():
                    key = f"{klass.__name__}.{attr}"
                    if attr.startswith("_") or key in found:
                        continue
                    if isinstance(member, staticmethod):
                        params = _parameters(member.__func__, False)
                    elif isinstance(member, classmethod):
                        params = _parameters(member.__func__, True)
                    elif inspect.isfunction(member):
                        params = _parameters(member, True)
                    else:
                        continue
                    found[key] = (attr, params, _defaults(None, params))
    return found


def _sets(value, default):
    """Does passing the expression *value* change the parameter?"""
    try:
        literal = ast.literal_eval(value)
    except (ValueError, TypeError, SyntaxError):
        return True  # a name or an expression: set
    try:
        return bool(literal != default)
    except ValueError:  # an array default: no literal equals it
        return True


def settings_in(tree, catalogue):
    """``(key, parameter)`` pairs the calls in *tree* set."""
    by_name = {}
    for key, (called, _, _) in catalogue.items():
        by_name.setdefault(called, []).append(key)
    found = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        called = (func.id if isinstance(func, ast.Name) else
                  func.attr if isinstance(func, ast.Attribute) else None)
        for key in by_name.get(called, ()):
            _, params, defaults = catalogue[key]
            positional = [p for p in params if p.kind != p.KEYWORD_ONLY]
            passed = []
            for param, arg in zip(positional, node.args):
                if isinstance(arg, ast.Starred):
                    break  # ``*args``: nothing further to place
                passed.append((param.name, arg))
            passed += [(kw.arg, kw.value) for kw in node.keywords
                       if kw.arg in defaults]   # ``**kwargs``: no name
            for name, value in passed:
                default = defaults[name]
                if default is not inspect.Parameter.empty \
                        and _sets(value, default):
                    found.add((key, name))
    return found


@functools.lru_cache(maxsize=None)
def census():
    """The public API's catalogue and the ``(key, parameter)`` pairs some
    non-test caller sets (read once per run)."""
    api = catalogue()
    found = set()
    for base in CALLERS:
        for path in sorted((ROOT / base).rglob("*.py")):
            found |= settings_in(ast.parse(path.read_text()), api)
    return api, found


def _defaulted(catalogue):
    return [(key, p.name) for key, (_, params, _) in catalogue.items()
            for p in params if p.default is not inspect.Parameter.empty]


def _allowed(key, name):
    return ALLOWED.get((key, name)) or ALLOWED.get(key)


def test_every_parameter_has_a_non_test_caller():
    api, found = census()
    unset = [pair for pair in _defaulted(api)
             if pair not in found and not _allowed(*pair)]
    assert unset == [], (
        "settable, but no non-test caller sets them; delete each, make it "
        f"a module constant, or name its caller: {unset}")


def test_allowed_entries_name_unset_parameters():
    api, found = census()
    defaulted = _defaulted(api)
    for entry in ALLOWED:
        key, name = entry if isinstance(entry, tuple) else (entry, None)
        assert key in api, f"{key} is not a public callable"
        flagged = [pair for pair in defaulted if pair[0] == key
                   and (name is None or pair[1] == name)]
        assert flagged, f"{entry} names no defaulted parameter"
        assert any(pair not in found for pair in flagged), (
            f"{entry} now has a caller for all it covers; drop it")


def test_allowed_reasons_are_the_listed_kinds():
    api, _ = census()
    for entry, reason in ALLOWED.items():
        if entry in {("FaultModel", mode) for mode in FAULT_MODES}:
            continue
        assert reason.startswith(REASONS), (entry, reason)
        if reason.startswith("set through "):
            where = reason[len("set through "):].split()[0]
            path, line = where.rsplit(":", 1)
            text = (ROOT / path).read_text().splitlines()[int(line) - 1]
            key, name = entry if isinstance(entry, tuple) else (entry, None)
            names = [p.name for p in api[key][1]
                     if p.default is not inspect.Parameter.empty]
            assert any(n in text for n in names if name in (None, n)), (
                f"{entry}: {where} does not set it")


def test_positional_and_keyword_arguments_count_but_defaults_do_not():
    api = {"f": ("f", _parameters(lambda a, b=1, *, c="x": None, False),
                 {"a": inspect.Parameter.empty, "b": 1, "c": "x"})}

    def sets(source):
        return settings_in(ast.parse(source), api)

    assert sets("f(0, 2)") == {("f", "b")}
    assert sets("f(0, b=1, c='x')") == set()     # the defaults, spelled out
    assert sets("g.f(0, c=name)") == {("f", "c")}
    assert sets("f(*args, **kwargs)") == set()
    assert sets("f(0, 1.0)") == set()            # equal to the default
