"""Static checks on the package source."""

import ast
import dataclasses
import inspect
import types
import weakref
from pathlib import Path

import pytest

import soft_irl

SOURCES = sorted(Path(soft_irl.__file__).parent.glob("*.py"))
MODULES = [p for p in SOURCES if p.name != "__init__.py"]


def unused_imports(source: str) -> list[str]:
    """Names bound by an import in ``source`` that no expression reads."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_unused_imports_are_found():
    source = "import os\nimport numpy as np\nfrom .mdp import Mdp, _path_sum\nnp.zeros(Mdp)\n"
    assert unused_imports(source) == ["os (line 1)", "_path_sum (line 3)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def dead_private_names(sources: dict[str, str]) -> list[str]:
    """Module-level private functions, classes and constants (``_name``, not
    dunders) of ``sources``, file name to text, that no expression in any of
    them reads, as a name or as a module attribute."""
    trees = {name: ast.parse(text) for name, text in sources.items()}
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
    dead = []
    for file, tree in trees.items():
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
            else:
                continue
            dead += [
                f"{file}: {name} (line {node.lineno})"
                for name in names
                if name.startswith("_") and not name.startswith("__") and name not in read
            ]
    return dead


def test_dead_private_names_are_found():
    a = (
        "def _used():\n    return _CONST\n"
        "def _dead():\n    pass\n"
        "_CONST = 1\n_A, _B = 2, 3\n__all__ = []\n"
    )
    b = "from a import _used\nimport a\n_used(a._B)\n"
    expected = ["a.py: _dead (line 3)", "a.py: _A (line 6)"]
    assert dead_private_names({"a.py": a, "b.py": b}) == expected


def test_no_dead_private_names():
    assert dead_private_names({p.name: p.read_text() for p in SOURCES}) == []


def scipy_imports(sources: dict[str, str]) -> list[str]:
    """Imports of scipy or a scipy module in ``sources``, module name to
    text, as ``module.function (line)`` (``module (line)`` at module level)."""
    found = []
    for module, text in sources.items():
        stack = [(node, module) for node in ast.parse(text).body]
        while stack:
            node, where = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{where}.{node.name}"
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                names = []
            if any(name.split(".")[0] == "scipy" for name in names):
                found.append(f"{where} (line {node.lineno})")
            stack += [(child, where) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_scipy_imports_are_found():
    source = (
        "import numpy as np\nimport scipy\n"
        "def f():\n    import scipy.linalg\n"
        "class C:\n    def g(self):\n        from scipy import optimize\n"
        "from .scipy_like import h\n"
    )
    assert scipy_imports({"m": source}) == ["m (line 2)", "m.C.g (line 7)", "m.f (line 4)"]


def test_the_package_imports_no_scipy():
    """The package runs on numpy alone; scipy is a test dependency, the
    suite's independent oracle of the factorizations the package makes."""
    assert scipy_imports({p.stem: p.read_text() for p in SOURCES}) == []


def test_all_lists_the_package_names():
    """``__all__`` is sorted and names exactly the public, non-module names
    that ``soft_irl/__init__.py`` binds."""
    bound = {
        name
        for name, value in vars(soft_irl).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert soft_irl.__all__ == sorted(soft_irl.__all__)
    assert sorted(soft_irl.__all__) == sorted(bound)


def test_fit_config_has_no_new_fields():
    """``FitConfig`` holds the problem's settings only; the solver's
    constants (ridge, line search, step extension) stay
    module constants of ``opt``."""
    names = [field.name for field in dataclasses.fields(soft_irl.FitConfig)]
    assert names == ["beta", "B_theta", "tol_decrement", "max_iters"]


def test_kernel_basis_takes_no_tolerance():
    """``kernel_basis`` decides the kernel in the features' own units, with
    the one cut of ``linear_reward._identifiable_split``; no caller can pass
    a tolerance of its own, in raw Hessian units."""
    assert list(inspect.signature(soft_irl.kernel_basis).parameters) == ["mdp", "features"]


def test_derived_values_are_properties_and_not_fields():
    """Each name in ``io._DERIVED`` is a property of its type and none of
    its dataclass fields, so the JSON hook writes every key once."""
    from soft_irl import io

    for cls, names in io._DERIVED.items():
        fields = {field.name for field in dataclasses.fields(cls)}
        for name in names:
            assert isinstance(inspect.getattr_static(cls, name, None), property), (cls, name)
            assert name not in fields, (cls, name)


# The functions that may convert a parameter themselves, with the reason: the
# reader's own wrapper of np.asarray, and internal helpers whose callers are
# all inside the package.
ARRAY_READER_ALLOWED = {
    "mdp._as_array": "the one place np.asarray meets outside data; every reader wraps it",
    "opt._fit": "target is a feature expectation the package computed itself",
}


def own_array_conversions(sources: dict[str, str]) -> list[str]:
    """Calls of ``np.asarray``, ``np.array`` or ``np.ascontiguousarray`` on a
    parameter of the calling function (or on ``self.<field>`` in a
    ``__post_init__``), as ``module.function (line)``, in ``sources``, module
    name to text."""
    found = []
    for module, text in sources.items():
        stack = [(node, module) for node in ast.parse(text).body]
        while stack:
            node, prefix = stack.pop()
            if isinstance(node, ast.ClassDef):
                stack += [(child, f"{prefix}.{node.name}") for child in node.body]
                continue
            if not isinstance(node, ast.FunctionDef):
                continue
            name = f"{prefix}.{node.name}"
            args = node.args
            params = {a.arg for a in args.posonlyargs + args.args + args.kwonlyargs}
            for call in ast.walk(node):
                if not (
                    isinstance(call, ast.Call)
                    and isinstance(call.func, ast.Attribute)
                    and isinstance(call.func.value, ast.Name)
                    and call.func.value.id == "np"
                    and call.func.attr in ("asarray", "array", "ascontiguousarray")
                    and call.args
                ):
                    continue
                arg = call.args[0]
                own = isinstance(arg, ast.Name) and arg.id in params
                field = (
                    node.name == "__post_init__"
                    and isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "self"
                )
                if own or field:
                    found.append(f"{name} (line {call.lineno})")
    return sorted(found)


def test_own_array_conversions_are_found():
    source = (
        "import numpy as np\n"
        "def f(x, y):\n    z = np.asarray(y)\n    return np.array(z), np.asarray([x])\n"
        "class C:\n    def __post_init__(self):\n        np.ascontiguousarray(self.r)\n"
        "def g(*, w):\n    return np.array(w)\n"
    )
    assert own_array_conversions({"m": source}) == [
        "m.C.__post_init__ (line 7)",
        "m.f (line 3)",
        "m.g (line 9)",
    ]


def test_only_the_mdp_reader_converts_an_outside_array():
    """No function converts an array it was given with ``np.asarray`` and
    its kin: public inputs go through ``mdp._as_float_array`` (or, for
    paths, ``mdp._as_paths``), so each gets the same typed checks."""
    sources = {p.stem: p.read_text() for p in MODULES}
    found = [
        hit for hit in own_array_conversions(sources)
        if hit.split(" ")[0] not in ARRAY_READER_ALLOWED
    ]
    assert found == []
    for name in ARRAY_READER_ALLOWED:  # an entry that no longer converts is stale
        assert any(hit.startswith(f"{name} ") for hit in own_array_conversions(sources)), name


RUNNER_CALLS = ("_load_run_config", "dump_json", "mkdir")


def runner_calls(source: str) -> list[str]:
    """Calls of ``_load_run_config``, ``<module>.dump_json`` or ``<path>.mkdir``
    in ``source``, as ``call in function (line)``, by top-level function."""
    found = []
    for top in ast.parse(source).body:
        for call in ast.walk(top):
            if not isinstance(call, ast.Call):
                continue
            func = call.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name in RUNNER_CALLS:
                found.append(f"{name} in {getattr(top, 'name', '<module>')} (line {call.lineno})")
    return found


def test_runner_calls_are_found():
    source = (
        "def _run(args):\n    config = _load_run_config(args.config)\n    pio.dump_json(1, 'x')\n"
        "def cmd_a(args):\n    out = Path('o')\n    out.mkdir()\n"
        "    return [pio.dump_json(r, out) for r in (1,)]\n"
        "X = _load_run_config(None)\n"
    )
    assert runner_calls(source) == [
        "_load_run_config in _run (line 2)",
        "dump_json in _run (line 3)",
        "mkdir in cmd_a (line 6)",
        "dump_json in cmd_a (line 7)",
        "_load_run_config in <module> (line 8)",
    ]


def test_only_the_cli_runner_loads_the_config_and_writes():
    """In the CLI, one runner loads the run config, makes the output
    directory and writes the report; a command only runs its study."""
    found = runner_calls((Path(soft_irl.__file__).parent / "cli.py").read_text())
    assert {hit.split(" (")[0] for hit in found} == {f"{name} in _run" for name in RUNNER_CALLS}


def time_loops(sources: dict[str, str]) -> list[str]:
    """Loops and comprehensions over a ``range`` whose bounds read the horizon,
    a name ``T`` or an attribute ``.T``, in ``sources``, module name to text,
    as ``module.function (line)`` (``module (line)`` at module level), with
    ``, reversed`` where the range is taken in ``reversed``.  A loop over the
    columns of a transpose, ``for c in x.T``, is not a time loop."""
    found = []
    for module, text in sources.items():
        stack = [(node, module) for node in ast.parse(text).body]
        while stack:
            node, where = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{where}.{node.name}"
            if isinstance(node, (ast.For, ast.comprehension)) and any(
                isinstance(call, ast.Call)
                and isinstance(call.func, ast.Name)
                and call.func.id == "range"
                and any(
                    (isinstance(n, ast.Name) and n.id == "T")
                    or (isinstance(n, ast.Attribute) and n.attr == "T")
                    for n in ast.walk(call)
                )
                for call in ast.walk(node.iter)
            ):
                backward = (
                    isinstance(node.iter, ast.Call)
                    and isinstance(node.iter.func, ast.Name)
                    and node.iter.func.id == "reversed"
                )
                found.append(f"{where} (line {node.iter.lineno}{', reversed' if backward else ''})")
            stack += [(child, where) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_time_loops_are_found():
    source = (
        "def f(T):\n    for t in reversed(range(T)):\n        pass\n"
        "class C:\n    def g(self, mdp, xs):\n        return [x for x in range(1, mdp.T - 1)]\n"
        "for t in range(3):\n    pass\n"
        "for t in reversed([1, 2]):\n    pass\n"
        "for c in x.T[:-1]:\n    pass\n"
        "for t, s in zip(range(spec.T), 'ab'):\n    pass\n"
    )
    assert time_loops({"m": source}) == [
        "m (line 13)",
        "m.C.g (line 6)",
        "m.f (line 2, reversed)",
    ]


def test_the_package_loops_in_time_only_where_the_math_recurses():
    """A loop over the steps is written only where a step needs the one
    before it: the one backward sweep ``soft_dp._sweep``, the forward
    propagation of the occupancy, the two samplers and the instance's seeded
    draws.  Every other per-step product is one stacked call over the kernel
    stack (``soft_dp._expected_next``) or one expression over the time axis."""
    found = time_loops({p.stem: p.read_text() for p in SOURCES})
    assert {hit.split(" (")[0] for hit in found} == {
        "soft_dp._sweep",
        "mdp._occupancy",
        "mdp.sample_trajectories",
        "mdp._sample_counts",
        "experiments.generate_instance",
    }
    backward = [hit.split(" (")[0] for hit in found if hit.endswith(", reversed)")]
    assert backward == ["soft_dp._sweep"]


VALUE_PASSES = ("_batch_soft_values", "solve_model", "soft_backward")


def value_pass_callers(sources: dict[str, str]) -> list[str]:
    """Calls of ``_batch_soft_values``, ``solve_model`` or ``soft_backward``,
    as a name or a module attribute, in ``sources``, module name to text, as
    ``module.function (line)`` (``module (line)`` at module level)."""
    found = []
    for module, text in sources.items():
        stack = [(node, module) for node in ast.parse(text).body]
        while stack:
            node, where = stack.pop()
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                where = f"{where}.{node.name}"
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                if name in VALUE_PASSES:
                    found.append(f"{where} (line {node.lineno})")
            stack += [(child, where) for child in ast.iter_child_nodes(node)]
    return sorted(found)


def test_value_pass_callers_are_found():
    source = (
        "def solve_model(mdp):\n    return soft_backward(mdp)\n"
        "class C:\n    def g(self, x):\n        return [lr.solve_model(y) for y in x]\n"
        "def h(q):\n    return _score_bound(q, _batch_soft_values)\n"
        "Q = _batch_soft_values(1)\n"
    )
    assert value_pass_callers({"m": source}) == [
        "m (line 8)",
        "m.C.g (line 5)",
        "m.solve_model (line 2)",
    ]


def test_value_passes_are_made_only_by_entry_points():
    """A parameter's soft values are solved by the function that holds the
    parameter: an entry point, a study's own pass or the fitter's loss.
    What is derived from a pass, the score bound and the derivative
    bundles, reads the pass's Gibbs tables and solves nothing again."""
    found = {hit.split(" (")[0] for hit in value_pass_callers({p.stem: p.read_text() for p in SOURCES})}
    assert found == {
        "cli.cmd_solve",
        "experiments._rate_grid",
        "experiments.check_local_geometry",
        "experiments.dikin_boundary_pair",
        "experiments.generate_instance",
        "linear_reward.derivative_bundle",
        "linear_reward.geometry_constants",
        "linear_reward.score",
        "linear_reward.solve_model",
        "linear_reward.third_derivative",
        "losses.equivalence_report",
        "losses.irl_empirical_loss",
        "losses.irl_population_loss",
        "losses.nonconvexity_probe.loss_at",
        "losses.soft_optimal_residuals",
        "opt._loss_and_values",
    }
    assert not found & {"linear_reward._score_bound", "linear_reward._batch_derivatives"}


STRONG_CACHES = ("cache", "lru_cache", "cached_property")


def strong_caches(sources: dict[str, str]) -> list[str]:
    """Uses of ``functools.cache``, ``lru_cache`` or ``cached_property`` in
    ``sources``, module name to text, as ``module (line)``: an import of one
    from ``functools`` or an attribute ``functools.<name>``."""
    found = []
    for module, text in sources.items():
        for node in ast.walk(ast.parse(text)):
            if isinstance(node, ast.ImportFrom) and node.module == "functools":
                hit = any(alias.name in STRONG_CACHES for alias in node.names)
            else:
                hit = (
                    isinstance(node, ast.Attribute)
                    and node.attr in STRONG_CACHES
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "functools"
                )
            if hit:
                found.append(f"{module} (line {node.lineno})")
    return sorted(found)


def test_strong_caches_are_found():
    source = (
        "import functools\nfrom functools import lru_cache as memo, partial\n"
        "@functools.cache\ndef f():\n    pass\n"
        "class C:\n    @functools.cached_property\n    def g(self):\n        return 1\n"
        "cache = {}\nfunctools.partial(f)\nx.lru_cache\n"
    )
    assert strong_caches({"m": source}) == ["m (line 2)", "m (line 3)", "m (line 7)"]


def test_state_kept_across_calls_is_held_weakly():
    """What the package keeps from one call to the next is keyed by the
    objects it belongs to and held weakly: no ``functools`` cache, which
    would keep its arguments alive, and the fitter's starts in a
    ``weakref.WeakKeyDictionary``."""
    from soft_irl import opt

    assert strong_caches({p.stem: p.read_text() for p in SOURCES}) == []
    assert type(opt._STARTS) is weakref.WeakKeyDictionary
