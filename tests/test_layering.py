"""Module boundaries inside the package.

No module reaches into a sibling module's private names, except the two
transform entry points ``grid._fftn``/``grid._ifftn``, which only
``spectral`` imports (every multiplier, and the pruned transforms that
take a shell mask's index blocks); the annulus indicator stays private to
``norms``, whose ``annulus_sup`` and ``annulus_l2_terms`` are the public
ways to use it.  Only ``dyadic`` decides where a shell mask can be nonzero:
no other module calls ``shell_box`` or ``frequency_band``, and the others
read a mask's ``blocks``.
The L^2 norm of a multiplied field goes through
``spectral.multiplier_l2_norm``, which needs no inverse transform: no
module writes ``l2_norm`` or ``lp_norm(..., 2)`` of an
``apply_multiplier`` call.  No
module imports a name it does not use, no public function, class, method
or property goes unused outside the tests (the reference implementations
only tests call live in ``tests/oracles.py``), and every suite runner takes
the config alone.  Every dyadic shell sum is assembled by
``dyadic.seq_norm``: no module reduces a comprehension over a shell range
with ``sum``, ``max`` or ``min``.  The only process-lifetime caches are the
two mask caches and the bounded torus-weight cache of the p = 2 shell
terms, none keyed by a ``Grid`` instance, and ``CommutatorOp`` builds its masks and symbols in one
cached property instead of once per matvec.  Every optional parameter of a
public function or method is set by some call in ``src/`` or ``bench/``
and left at its default by another, apart from the few seams listed in
``UNSET_PARAMETERS``, which no call sets; none defaults to a bool: an
on/off switch is a second function in disguise.  The verifiers in
``harness`` measure on the grid they are given: it calls neither
``Grid(...)`` nor ``.refine()``, and the suites refine.  Every relative
drift goes through ``harness.relative_drift``: no module divides
``abs(x - r)`` by ``r``.  The shell-Sobolev norms of the time slices of a
space-time field are taken in one batched call: no module calls
``lqa_sobolev_norm`` or ``lqa_shell_terms`` in a loop over ``.slices()``.
No module imports or loads ``scipy.linalg`` or ``scipy.sparse``, no
module but ``grid`` names ``scipy.fft``, and ``commutators`` names no
``numpy.linalg``: its Lanczos solve runs no LAPACK call.  No module calls
``np.stack``: a space-time field is written slice by slice into one
preallocated stack, so no list of slices lives beside its stacked copy.
"""

import ast
import subprocess
import sys
from pathlib import Path

import smoothlab

MODULES = sorted(Path(smoothlab.__file__).parent.glob("*.py"))
ALLOWED = {("grid", "_fftn"), ("grid", "_ifftn")}


def _sibling(node: ast.ImportFrom) -> str | None:
    """Sibling module named by a ``from ... import`` ('' for ``from . import``)."""
    if node.level == 1:
        return node.module or ""
    if node.level == 0 and (node.module or "").startswith("smoothlab."):
        return node.module.split(".", 1)[1]
    return None


def _private_reach_ins(tree: ast.Module) -> list[tuple[str, str]]:
    found = []
    module_aliases = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (mod := _sibling(node)) is not None:
            for alias in node.names:
                if mod == "":
                    module_aliases[alias.asname or alias.name] = alias.name
                elif alias.name.startswith("_"):
                    found.append((mod, alias.name))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in module_aliases and node.attr.startswith("_")):
            found.append((module_aliases[node.value.id], node.attr))
    return found


def _names(tree: ast.Module) -> set[str]:
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
    return out


def test_no_private_sibling_imports():
    offenders = [
        (path.name, mod, name)
        for path in MODULES
        for mod, name in _private_reach_ins(ast.parse(path.read_text()))
        if (mod, name) not in ALLOWED
    ]
    assert offenders == []


def test_only_spectral_imports_the_transforms():
    # a multiplier written as _ifftn(sym * _fftn(...)) outside spectral is
    # a copy of spectral.apply_multiplier, and a full inverse of a
    # band-limited spectrum repeats the work spectral.banded_ifft_inplace
    # prunes on the band's blocks
    importers = sorted(
        path.name
        for path in MODULES
        if {name for _, name in _private_reach_ins(ast.parse(path.read_text()))}
        & {"_fftn", "_ifftn"}
    )
    assert importers == ["spectral.py"]


REDUCERS = {"sum", "max", "min"}
COMPREHENSIONS = (ast.GeneratorExp, ast.ListComp, ast.SetComp)


def _shell_reductions(tree: ast.Module) -> list[int]:
    """Lines where sum/max/min reduces a comprehension over a shell range."""
    return [
        call.lineno
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and getattr(call.func, "id", "") in REDUCERS
        and call.args and isinstance(call.args[0], COMPREHENSIONS)
        and any(name.endswith("shells") for gen in call.args[0].generators
                for name in _names(gen.iter))
    ]


def test_shell_sums_go_through_seq_norm():
    # a weighted shell sum written out by hand is a second copy of the
    # l^{q,a} rule in dyadic.seq_norm
    offenders = [
        (path.name, line)
        for path in MODULES
        for line in _shell_reductions(ast.parse(path.read_text()))
    ]
    assert offenders == []


def _called_name(call: ast.Call) -> str:
    f = call.func
    return f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "")


def _l2_of_multiplied(tree: ast.Module) -> list[int]:
    """Lines taking l2_norm(apply_multiplier(...)) or lp_norm(apply_multiplier(...), 2)."""
    return [
        call.lineno
        for call in ast.walk(tree)
        if isinstance(call, ast.Call) and call.args
        and isinstance(call.args[0], ast.Call) and _called_name(call.args[0]) == "apply_multiplier"
        and (_called_name(call) == "l2_norm"
             or (_called_name(call) == "lp_norm" and len(call.args) > 1
                 and isinstance(call.args[1], ast.Constant) and call.args[1].value == 2))
    ]


def test_l2_of_a_multiplied_field_goes_through_plancherel():
    # the inverse transform of a field whose L^2 norm is all that is kept
    # is wasted: multiplier_l2_norm reads the norm off the spectrum
    offenders = [
        (path.name, line)
        for path in MODULES
        for line in _l2_of_multiplied(ast.parse(path.read_text()))
    ]
    assert offenders == []


def test_annulus_mask_private_to_norms():
    users = [path.name for path in MODULES if "_annulus_mask" in _names(ast.parse(path.read_text()))]
    assert users == ["norms.py"]


def _imported_names(tree: ast.Module) -> list[str]:
    out = []
    for node in tree.body:
        if isinstance(node, ast.Import):
            out += [(a.asname or a.name).split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            out += [a.asname or a.name for a in node.names]
    return out


def test_no_unused_imports():
    unused = []
    for path in MODULES:
        tree = ast.parse(path.read_text())
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [(path.name, name) for name in _imported_names(tree) if name not in used]
    assert unused == []


def test_suite_runners_take_only_the_config():
    tree = ast.parse((Path(smoothlab.__file__).parent / "suites.py").read_text())
    runners = next(
        node.value for node in tree.body
        if isinstance(node, ast.AnnAssign) and node.target.id == "SUITE_RUNNERS"
    )
    names = [v.id for v in runners.values]
    defs = {node.name: node.args for node in tree.body if isinstance(node, ast.FunctionDef)}
    arity = {name: len(defs[name].args) + len(defs[name].kwonlyargs)
             + bool(defs[name].vararg) + bool(defs[name].kwarg) for name in names}
    assert len(names) == 13
    assert arity == {name: 1 for name in names}


def _cache_decorated(tree: ast.Module) -> list[str]:
    """Functions decorated with functools.lru_cache or functools.cache."""
    out = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for dec in node.decorator_list:
                target = dec.func if isinstance(dec, ast.Call) else dec
                name = target.attr if isinstance(target, ast.Attribute) else getattr(target, "id", "")
                if name in ("lru_cache", "cache"):
                    out.append(node.name)
    return out


SUPPORT_DECISIONS = {"shell_box", "frequency_band"}


def test_only_dyadic_decides_where_a_mask_can_be_nonzero():
    # a caller that re-derives a shell's cube or band repeats the support
    # decision that a ShellMask carries in its blocks, and a second copy
    # can drift from the stored values
    callers = sorted({path.name for path in MODULES
                      if _called_names(ast.parse(path.read_text())) & SUPPORT_DECISIONS})
    assert callers == ["dyadic.py"]


def test_lru_caches_are_the_two_mask_caches():
    # memoizing a per-grid symbol for the life of the process raised the
    # main-estimate peak RSS beyond its 5 % bound; a bounded or per-run
    # cache edits this set on purpose: the torus weights of the p = 2
    # shell terms hold at most 16 arrays of (N/2)^n floats, 4 MiB at 64^3
    cached = {
        f"{path.stem}.{name}"
        for path in MODULES
        for name in _cache_decorated(ast.parse(path.read_text()))
    }
    assert cached == {"dyadic._cached_masks", "norms._annulus_mask", "norms._torus_weight"}


def test_no_cache_is_keyed_by_a_grid():
    # an lru_cache entry keeps its key alive: keyed by a Grid instance it
    # holds that grid and the |x| and |xi| arrays cached on it, 2 MiB each
    # at 64^3, long after the grid's last user; the caches take the grid's
    # value instead
    keyed = [
        (path.stem, node.name, arg.arg)
        for path in MODULES
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef) and node.name in _cache_decorated(node)
        for arg in node.args.posonlyargs + node.args.args + node.args.kwonlyargs
        if arg.arg == "grid" or "Grid" in ast.unparse(arg.annotation or ast.Constant(""))
    ]
    assert keyed == []


FACTOR_BUILDERS = {"spatial_mask", "abs_freq_power", "fractional_laplacian"}


def _defined_functions(path: Path) -> set[str]:
    return {node.name for node in ast.walk(ast.parse(path.read_text()))
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))}


def _called_names(node: ast.AST) -> set[str]:
    out = set()
    for call in ast.walk(node):
        if isinstance(call, ast.Call):
            f = call.func
            out.add(f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", ""))
    return out


def test_commutator_factors_built_in_one_cached_property():
    # a Lanczos solve runs up to a hundred matvecs per operator; fetching a
    # mask or building |xi|^s inside apply/apply_adjoint repeats it each time;
    # a renamed builder would leave this guard checking nothing
    oracles = Path(__file__).parent / "oracles.py"
    assert FACTOR_BUILDERS <= set().union(*map(_defined_functions, [*MODULES, oracles]))
    tree = ast.parse((Path(smoothlab.__file__).parent / "commutators.py").read_text())
    op = next(node for node in tree.body
              if isinstance(node, ast.ClassDef) and node.name == "CommutatorOp")
    builders = {
        member.name: member.decorator_list
        for member in op.body
        if isinstance(member, ast.FunctionDef) and _called_names(member) & FACTOR_BUILDERS
    }
    assert list(builders) == ["_factors"]
    assert [getattr(d, "id", getattr(d, "attr", "")) for d in builders["_factors"]] == [
        "cached_property"
    ]


BENCH_FILES = sorted((Path(smoothlab.__file__).parents[2] / "bench").glob("*.py"))


def _units(path: Path) -> list[tuple[ast.AST, str, set[str]]]:
    """(node, qualified name, names used) for each top-level statement, and
    for the header and each member of a top-level class, so that a method
    used only by its own body has no caller."""
    out = []
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.ClassDef):
            header = stmt.bases + stmt.keywords + stmt.decorator_list
            out.append((stmt, stmt.name, set().union(*map(_names, header))))
            out += [(m, f"{stmt.name}.{getattr(m, 'name', '')}", _names(m)) for m in stmt.body]
        else:
            out.append((stmt, getattr(stmt, "name", ""), _names(stmt)))
    return out


def test_every_public_definition_has_a_caller():
    # every public function and class of src/, and every public method and
    # property of a public class, is named by a statement of src/ or bench/
    # outside its own definition; code under tests/ does not count, and the
    # reference implementations only tests call live in tests/oracles.py
    units = [(path, qualname, names)
             for path in MODULES + BENCH_FILES for _, qualname, names in _units(path)]
    definitions = [
        (path, qualname, node.name)
        for path in MODULES for node, qualname, _ in _units(path)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not any(part.startswith("_") for part in qualname.split("."))
    ]
    unused = [
        qualname
        for path, qualname, name in definitions
        if not any(
            name in names
            for other, other_qualname, names in units
            if not (other == path and (other_qualname == qualname
                                       or other_qualname.startswith(qualname + ".")))
        )
    ]
    assert unused == []


#: optional parameters no call in src/ or bench/ sets, kept on purpose
UNSET_PARAMETERS = {
    ("magnetic_solve", "dt"):
        "acceptance criterion 10 checks the Strang order by halving the step",
    ("band_limited_spacetime", "mode_radius"):
        "the kpv draw that stays inside the box sets it (ROADMAP item 1)",
    ("band_limited_spacetime", "window"):
        "the kpv draw that stays inside the box sets it (ROADMAP item 1)",
}


def _optional_parameters(func: ast.FunctionDef, method: bool) -> list[tuple[str, int | None]]:
    """(name, positional index or None) of each parameter with a default;
    a method's index counts from the first argument after ``self``."""
    positional = func.args.posonlyargs + func.args.args
    out = [(a.arg, i - method)
           for i, a in enumerate(positional)
           if i >= len(positional) - len(func.args.defaults)]
    out += [(a.arg, None)
            for a, d in zip(func.args.kwonlyargs, func.args.kw_defaults) if d is not None]
    return out


def _public_defs(path: Path):
    """(definition, is a method) of each public function and of each
    public method of a public class."""
    for stmt in ast.parse(path.read_text()).body:
        if isinstance(stmt, ast.FunctionDef) and not stmt.name.startswith("_"):
            yield stmt, False
        elif isinstance(stmt, ast.ClassDef) and not stmt.name.startswith("_"):
            for member in stmt.body:
                if isinstance(member, ast.FunctionDef) and not member.name.startswith("_"):
                    yield member, True


def _public_functions(path: Path):
    """(callee name, optional parameters) of each public function and method."""
    for func, method in _public_defs(path):
        yield func.name, _optional_parameters(func, method)


def _sets(call: ast.Call, name: str, index: int | None) -> bool:
    """Whether a call passes the parameter by keyword, by enough positional
    arguments, or through ``*args``/``**kwargs``."""
    if any(isinstance(a, ast.Starred) for a in call.args):
        return True
    if any(kw.arg is None or kw.arg == name for kw in call.keywords):
        return True
    return index is not None and len(call.args) > index


def test_every_optional_parameter_is_set_in_src():
    # a default no call in src/ or bench/ overrides is a one-value parameter
    # (a constant in disguise) or a test-only one, and a default every such
    # call overrides is one only the tests use; calls are matched by the
    # callee's name
    calls = [node for path in MODULES + BENCH_FILES
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Call)]
    unset, always_set = [], []
    for path in MODULES:
        for callee, params in _public_functions(path):
            mine = [c for c in calls if _called_name(c) == callee]
            for name, index in params:
                setters = [_sets(c, name, index) for c in mine]
                if not any(setters):
                    unset.append((callee, name))
                elif all(setters):
                    always_set.append((callee, name))
    assert sorted(unset) == sorted(UNSET_PARAMETERS)
    assert always_set == []


def _written_out_drifts(tree: ast.Module) -> list[int]:
    """Lines dividing abs(x - r) (or abs(r - x)) by r, outside
    ``relative_drift``."""
    skip = {id(node) for fn in ast.walk(tree)
            if isinstance(fn, ast.FunctionDef) and fn.name == "relative_drift"
            for node in ast.walk(fn)}
    return [
        node.lineno
        for node in ast.walk(tree)
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div) and id(node) not in skip
        and isinstance(node.left, ast.Call) and getattr(node.left.func, "id", "") == "abs"
        and len(node.left.args) == 1 and isinstance(diff := node.left.args[0], ast.BinOp)
        and isinstance(diff.op, ast.Sub)
        and ast.dump(node.right) in (ast.dump(diff.left), ast.dump(diff.right))
    ]


def test_relative_drifts_go_through_one_rule():
    # a drift written out by hand is a second copy of the zero-reference
    # rule in harness.relative_drift (and raises ZeroDivisionError there)
    offenders = [
        (path.name, line)
        for path in MODULES
        for line in _written_out_drifts(ast.parse(path.read_text()))
    ]
    assert offenders == []


BATCHED_NORMS = {"lqa_sobolev_norm", "lqa_shell_terms"}


def _over_slices(node: ast.AST) -> bool:
    return "slices" in _called_names(node)


def _per_slice_norm_calls(tree: ast.Module) -> list[int]:
    """Lines calling a batched shell norm inside a for loop or a
    comprehension that runs over ``.slices()``."""
    bodies = []
    for node in ast.walk(tree):
        if isinstance(node, ast.For) and _over_slices(node.iter):
            bodies += node.body
        elif (isinstance(node, (*COMPREHENSIONS, ast.DictComp))
              and any(_over_slices(gen.iter) for gen in node.generators)):
            bodies += [node.key, node.value] if isinstance(node, ast.DictComp) else [node.elt]
    return [call.lineno for body in bodies for call in ast.walk(body)
            if isinstance(call, ast.Call) and _called_name(call) in BATCHED_NORMS]


def test_shell_norms_take_all_slices_in_one_call():
    # one call per time slice rebuilt the masks, weights and |xi|^s of the
    # norm for every slice; a batch of slices builds them once
    assert _per_slice_norm_calls(ast.parse(
        "vals = [lqa_sobolev_norm(s, d, S) for s in u.slices()]")) == [1]
    offenders = [
        (path.name, line)
        for path in MODULES
        for line in _per_slice_norm_calls(ast.parse(path.read_text()))
    ]
    assert offenders == []


HEAVY_SCIPY = ("scipy.linalg", "scipy.sparse")


def test_no_module_imports_scipy_linalg_or_sparse():
    # loading scipy.sparse.linalg (for eigsh) brings in scipy.linalg and
    # scipy.sparse, 8.2 MiB of RSS in every suite run: about 7 % of the
    # phase-localization peak and 9 % of the main-estimate one.  The first
    # check finds any import statement, lazy ones included; the second
    # finds what importing the package loads through other modules.
    imports = []
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imports += [(path.name, a.name) for a in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imports += [(path.name, f"{node.module}.{a.name}") for a in node.names]
    assert [(f, m) for f, m in imports if m.startswith(HEAVY_SCIPY)] == []
    code = "".join(f"import smoothlab.{p.stem}\n" for p in MODULES if p.stem != "__init__")
    code += f"import sys; print(sorted(m for m in sys.modules if m.startswith({HEAVY_SCIPY})))"
    src = str(Path(smoothlab.__file__).parents[1])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          check=True, cwd=src)
    assert proc.stdout.strip() == "[]"


def _module_references(tree: ast.Module, module: str, package_names: set[str]) -> list[int]:
    """Lines importing ``module`` (a ``package.sub`` name) or one of its
    names, or naming it as an attribute of its package, bound under one of
    ``package_names``."""
    package = module.split(".")[0]
    lines = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [a.name for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module] + [f"{node.module}.{a.name}" for a in node.names]
        elif isinstance(node, ast.Attribute) and getattr(node.value, "id", "") in package_names:
            names = [f"{package}.{node.attr}"]
        else:
            continue
        if any(name == module or name.startswith(module + ".") for name in names):
            lines.append(node.lineno)
    return lines


def test_only_grid_references_scipy_fft():
    # grid._fftn/_ifftn look the transforms up at call time, so the bench
    # span wrappers and the fft_calls fixture see every transform, the axis
    # passes of the pruned transforms included; a module that binds scipy.fft
    # itself would run transforms neither of them counts
    users = sorted({path.name for path in MODULES
                    if _module_references(ast.parse(path.read_text()), "scipy.fft", {"scipy"})})
    assert users == ["grid.py"]


def test_commutators_call_no_numpy_linalg():
    # an eigh of the tridiagonal matrix at every Lanczos step ran LAPACK,
    # whose threaded call kept the second core spinning: commutator-scan
    # used half again as much CPU time as wall time; the top Ritz pair is
    # found by Sturm counts and a Thomas solve instead
    numpy_names = {"np", "numpy"}
    assert _module_references(ast.parse("import numpy as np\nnp.linalg.eigh(t)\n"),
                              "numpy.linalg", numpy_names) == [2]
    assert _module_references(ast.parse("from numpy.linalg import eigh\n"),
                              "numpy.linalg", numpy_names) == [1]
    assert _module_references(ast.parse("from numpy import linalg\n"),
                              "numpy.linalg", numpy_names) == [1]
    path = Path(smoothlab.__file__).parent / "commutators.py"
    assert _module_references(ast.parse(path.read_text()), "numpy.linalg", numpy_names) == []


def test_no_public_parameter_defaults_to_a_bool():
    # an on/off switch doubles the configurations a test must cover; a
    # caller that wants less work calls the smaller function instead
    switches = []
    for path in MODULES:
        for func, _ in _public_defs(path):
            a = func.args
            positional = a.posonlyargs + a.args
            defaults = list(zip(positional[len(positional) - len(a.defaults):], a.defaults))
            defaults += zip(a.kwonlyargs, a.kw_defaults)
            switches += [(path.name, func.name, arg.arg) for arg, d in defaults
                         if isinstance(d, ast.Constant) and isinstance(d.value, bool)]
    assert switches == []


def test_harness_builds_no_grid():
    # a verifier measures on the grid it is given; refinement is the suites'
    tree = ast.parse((Path(smoothlab.__file__).parent / "harness.py").read_text())
    builds = [call.lineno for call in ast.walk(tree)
              if isinstance(call, ast.Call) and _called_name(call) in ("Grid", "refine")]
    assert builds == []


def _stack_calls(tree: ast.Module) -> list[int]:
    """Lines calling ``np.stack``/``numpy.stack`` or importing ``stack``
    from numpy."""
    lines = []
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                and node.func.attr == "stack"
                and getattr(node.func.value, "id", "") in ("np", "numpy")):
            lines.append(node.lineno)
        elif (isinstance(node, ast.ImportFrom) and node.module == "numpy"
              and any(a.name == "stack" for a in node.names)):
            lines.append(node.lineno)
    return lines


def test_no_stacked_copies():
    # a list of slices and their np.stack are two copies of a space-time
    # field alive at once: 4.5 MiB each for 9 slices at 32^3
    assert _stack_calls(ast.parse("import numpy as np\nv = np.stack([a, b])\n")) == [2]
    assert _stack_calls(ast.parse("from numpy import stack\n")) == [1]
    offenders = [
        (path.name, line)
        for path in MODULES
        for line in _stack_calls(ast.parse(path.read_text()))
    ]
    assert offenders == []
