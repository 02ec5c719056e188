"""Source checks on ``src/lmpcast``: no private module-level definition is dead
code, the recursions compute on dense lag arrays, JSON values are typed
only by the field tables' leaf readers, CSV cells are formatted only by
``dataio``'s table writer, a regressor matrix's column count is read only
by ``arima``'s regressor rule, the package never imports ``scipy.signal``,
``scipy.linalg`` or ``scipy.optimize``, with one ``lfilter`` in the package,
SciPy's private routines are named only by the one loader that loads them,
hours are rendered only by ``series.format_hour``, and no search runs a
Nelder-Mead simplex, ``arima`` inverts the MA side only in
``_ma_inverse``, and only the innovation kernel, its Jacobian stage and
the forecasts' unit-backcast response call ``_ma_inverse``."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "lmpcast"


def unreferenced_private_definitions(modules):
    """``module:name`` of each private module-level function or class that no
    code outside its own definition names, over ``(module, tree)`` pairs."""
    defined = []
    referenced = set()
    for module, tree in modules:
        for node in tree.body:
            own = None
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                own = node.name
                if own.startswith("_") and not own.startswith("__"):
                    defined.append((module, own))
            for sub in ast.walk(node):
                if isinstance(sub, ast.Name):
                    name = sub.id
                elif isinstance(sub, ast.Attribute):
                    name = sub.attr
                elif isinstance(sub, ast.alias):
                    name = sub.name
                else:
                    continue
                if name != own:
                    referenced.add(name)
    return [f"{module}:{name}" for module, name in defined if name not in referenced]


# the sparse-map algebra that builds LagPolynomial products; computation
# reads dense arrays (``arima._lag_array``, ``LagPolynomial.dense``)
SPARSE_BUILDERS = {"ar_polynomial", "ma_polynomial", "multiply"}


def sparse_algebra_uses(modules):
    """``module:line name`` of each reference to ``lfiltic`` and of each call
    to a sparse builder outside ``lagpoly.py`` and the builders' own bodies."""
    found = []
    for module, tree in modules:
        for node in tree.body:
            own = getattr(node, "name", None)
            for sub in ast.walk(node):
                name = getattr(sub, "id", None) or getattr(sub, "attr", None) or getattr(sub, "name", None)
                if name == "lfiltic":
                    found.append(f"{module}:{sub.lineno} lfiltic")
                if not isinstance(sub, ast.Call) or module == "lagpoly.py" or own in SPARSE_BUILDERS:
                    continue
                callee = getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)
                if callee in SPARSE_BUILDERS:
                    found.append(f"{module}:{sub.lineno} {callee}")
    return found


# the leaf readers of the field tables in ``errors.py``: the one place a JSON
# value is cast to a Python scalar
LEAF_READERS = {"integer", "number", "boolean"}
CASTS = {"int", "float", "bool"}


def casts_outside_readers(modules):
    """``module:line name`` of each call to ``int``, ``float`` or ``bool``
    outside the leaf readers' bodies."""
    found = []
    for module, tree in modules:
        for node in tree.body:
            if getattr(node, "name", None) in LEAF_READERS:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and getattr(sub.func, "id", None) in CASTS:
                    found.append(f"{module}:{sub.lineno} {sub.func.id}")
    return found


def csv_rules_outside_dataio(modules):
    """``module:line what`` of each ``.6f`` format outside ``dataio.py`` and of
    each private name taken from ``dataio`` (imported or read as an attribute)."""
    found = []
    for module, tree in modules:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str) and ".6f" in sub.value:
                if module != "dataio.py":
                    found.append(f"{module}:{sub.lineno} .6f")
            elif isinstance(sub, ast.ImportFrom) and (sub.module or "").split(".")[-1] == "dataio":
                found += [f"{module}:{sub.lineno} {a.name}" for a in sub.names if a.name.startswith("_")]
            elif isinstance(sub, ast.Attribute) and getattr(sub.value, "id", None) == "dataio":
                if sub.attr.startswith("_"):
                    found.append(f"{module}:{sub.lineno} {sub.attr}")
    return found


# the regressor rule: the one place an ``ExogenousMatrix``'s column count ``.r`` is read
EXOG_RULE = ("arima.py", "_check_exog_count")


def column_count_reads(modules):
    """``module:line`` of each ``.r`` attribute outside the regressor rule's body."""
    found = []
    for module, tree in modules:
        for node in tree.body:
            if (module, getattr(node, "name", None)) == EXOG_RULE:
                continue
            found += [f"{module}:{sub.lineno}" for sub in ast.walk(node)
                      if isinstance(sub, ast.Attribute) and sub.attr == "r"]
    return found


# the one filter entry point: a top-level function of this module
FILTER = ("lagpoly.py", "lfilter")
# never imported: the filter and the Levenberg-Marquardt search load SciPy's
# C routines without ``scipy.signal`` or ``scipy.optimize``, and the
# Durbin-Levinson recursion in ``series`` replaces ``scipy.linalg``
NEVER_IMPORTED = ("scipy.signal", "scipy.linalg", "scipy.optimize")
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _under(names, packages):
    return any(n == p or n.startswith(p + ".") for n in names for p in packages)


def _loaded(node):
    """Dotted names an absolute import loads: ``from a import b`` may load ``a.b``."""
    if isinstance(node, ast.Import):
        return [alias.name for alias in node.names]
    if node.level:
        return []
    return [node.module, *(f"{node.module}.{alias.name}" for alias in node.names)]


def scipy_imports_and_filters(modules):
    """``module:line what`` of each import of ``scipy.signal``, ``scipy.linalg``
    or ``scipy.optimize``, and each ``lfilter`` defined anywhere but at the
    top level of ``lagpoly.py``."""
    found = []
    for module, tree in modules:
        for node in ast.walk(tree):
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                names = _loaded(node)
                never = [p for p in NEVER_IMPORTED if _under(names, (p,))]
                if never:
                    found.append((module, node.lineno, never[0]))
            elif isinstance(node, DEFS) and node.name == FILTER[1]:
                if (module, node in tree.body) != (FILTER[0], True):
                    found.append((module, node.lineno, "lfilter"))
    return [f"{module}:{line} {what}" for module, line, what in sorted(found)]


# SciPy's private C routines the package calls and the extension files that
# hold them: named only in the body of the one loader
PRIVATE_SCIPY = {"_linear_filter", "_lmder", "_sigtools", "_minpack"}
LOADER = ("lagpoly.py", "_load_scipy_routines")


def private_scipy_lookups(modules):
    """``module:line name`` of each string, attribute or absolute import that
    names a private SciPy routine or its extension outside the loader's body
    (a string names one when it is one of its dot-separated parts)."""
    found = []
    for module, tree in modules:
        for node in tree.body:
            if (module, getattr(node, "name", None)) == LOADER:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                    names = sub.value.split(".")
                elif isinstance(sub, ast.Attribute):
                    names = [sub.attr]
                elif isinstance(sub, (ast.Import, ast.ImportFrom)):
                    names = [part for name in _loaded(sub) for part in name.split(".")]
                else:
                    continue
                found += [f"{module}:{sub.lineno} {name}" for name in names if name in PRIVATE_SCIPY]
    return found


def isoformat_uses(modules):
    """``module:line`` of each ``isoformat`` attribute: an hour in a message is
    written by ``series.format_hour``, in the form configs and CSVs use."""
    return [f"{module}:{sub.lineno}" for module, tree in modules for sub in ast.walk(tree)
            if isinstance(sub, ast.Attribute) and sub.attr == "isoformat"]


# every search follows derivatives: the mean equation Levenberg-Marquardt
# from the filter Jacobian, the GARCH layer Fisher scoring on its analytic
# score; these names are the simplex SciPy offers and the package's old one
SIMPLEX_NAMES = {"_run_simplex", "minimize", "fmin"}
SIMPLEX_METHOD = "nelder-mead"


def simplex_uses(modules):
    """``module:line what`` of each name, attribute, import or definition in
    ``SIMPLEX_NAMES`` and each string that is a Nelder-Mead method name."""
    found = set()
    for module, tree in modules:
        for sub in ast.walk(tree):
            name = getattr(sub, "id", None) or getattr(sub, "attr", None) or getattr(sub, "name", None)
            if name in SIMPLEX_NAMES:
                found.add((module, sub.lineno, name))
            value = getattr(sub, "value", None)
            if isinstance(sub, ast.Constant) and isinstance(value, str) and value.lower() == SIMPLEX_METHOD:
                found.add((module, sub.lineno, value))
    return [f"{module}:{line} {what}" for module, line, what in sorted(found)]


# the one MA inverse: ``arima``'s all-pole filter calls run only in this body
MA_INVERSE = ("arima.py", "_ma_inverse")
UNIT_NUMERATORS = ("_UNIT", "[1.0]")


def all_pole_filters(modules):
    """``module:line`` of each ``lfilter`` call in ``arima.py`` outside the MA
    inverse's body whose numerator (first argument or ``b``) is ``_UNIT`` or
    ``[1.0]``."""
    found = []
    for module, tree in modules:
        if module != MA_INVERSE[0]:
            continue
        for node in tree.body:
            if getattr(node, "name", None) == MA_INVERSE[1]:
                continue
            for sub in ast.walk(node):
                if not isinstance(sub, ast.Call):
                    continue
                if (getattr(sub.func, "id", None) or getattr(sub.func, "attr", None)) != "lfilter":
                    continue
                b = sub.args[0] if sub.args else next((k.value for k in sub.keywords if k.arg == "b"), None)
                name = b is not None and (getattr(b, "id", None) or getattr(b, "attr", None) or ast.unparse(b))
                if name in UNIT_NUMERATORS:
                    found.append(f"{module}:{sub.lineno}")
    return found


# the one innovation kernel: the MA inverse runs only in ``arima``'s kernel,
# its Jacobian stage and ``forecast_origins``' unit-backcast response
MA_INVERSE_CALLERS = ("arima.py", ("_concentrated", "_concentrated_jacobian", "forecast_origins"))


def ma_inverse_calls(modules):
    """``module:line definition`` of each call to ``_ma_inverse`` outside the
    bodies of ``MA_INVERSE_CALLERS``, by the module-level definition holding it."""
    found = []
    for module, tree in modules:
        for node in tree.body:
            own = getattr(node, "name", None)
            if module == MA_INVERSE_CALLERS[0] and own in MA_INVERSE_CALLERS[1]:
                continue
            for sub in ast.walk(node):
                if isinstance(sub, ast.Call) and (getattr(sub.func, "id", None)
                                                  or getattr(sub.func, "attr", None)) == MA_INVERSE[1]:
                    found.append(f"{module}:{sub.lineno} {own}")
    return found


def parse_src():
    return [(path.name, ast.parse(path.read_text(encoding="utf-8"))) for path in sorted(SRC.glob("*.py"))]


def test_every_private_definition_is_used():
    modules = parse_src()
    assert len(modules) > 5
    assert unreferenced_private_definitions(modules) == []


def test_recursions_use_dense_arrays_and_no_lfiltic():
    assert sparse_algebra_uses(parse_src()) == []


def test_check_sees_sparse_algebra_and_lfiltic():
    lagpoly = ast.parse("def multiply(a, b):\n    pass\n\ndef square(a):\n    return multiply(a, a)\n")
    arima = ast.parse(
        "from scipy.signal import lfiltic\n"
        "from . import lagpoly\n\n"
        "def ar_polynomial(spec, params):\n    return multiply(spec, params)\n\n"
        "def check(spec, params):\n    return lagpoly.multiply(ar_polynomial(spec, params), spec)\n"
    )
    assert sparse_algebra_uses([("lagpoly.py", lagpoly), ("arima.py", arima)]) == [
        "arima.py:1 lfiltic", "arima.py:8 multiply", "arima.py:8 ar_polynomial",
    ]


def test_check_sees_a_dead_definition():
    used = ast.parse("def _helper():\n    pass\n\nclass _Shape:\n    pass\n\nvalue = _helper\n")
    other = ast.parse("from .used import _Shape\n\ndef _recursive(n):\n    return _recursive(n - 1)\n")
    assert unreferenced_private_definitions([("used.py", used), ("other.py", other)]) == ["other.py:_recursive"]


def test_config_and_cli_values_are_typed_by_the_leaf_readers():
    modules = [m for m in parse_src() if m[0] in ("config.py", "cli.py", "errors.py")]
    assert len(modules) == 3
    assert casts_outside_readers(modules) == []


def test_check_sees_a_cast_outside_the_readers():
    config = ast.parse(
        "def integer(value):\n    return int(value)\n\n"
        "def build(block):\n    return float(block['x']), integer(block['p'])\n\n"
        "SEED = int('3')\n"
    )
    assert casts_outside_readers([("config.py", config)]) == ["config.py:5 float", "config.py:7 int"]


def test_csv_cells_are_formatted_only_by_dataio():
    assert csv_rules_outside_dataio(parse_src()) == []


def test_check_sees_csv_rules_outside_dataio():
    dataio = ast.parse("def _open(path):\n    return path\n\nSIX = '{:.6f}'\n")
    cli = ast.parse(
        "from .dataio import _open, write_text\n"
        "from lmpcast import dataio\n\n"
        "def run(x):\n    dataio._open(f'{x:.6f}')\n    return '%.6f' % x, f'{x:.2f}'\n"
    )
    assert sorted(csv_rules_outside_dataio([("dataio.py", dataio), ("cli.py", cli)])) == [
        "cli.py:1 _open", "cli.py:5 .6f", "cli.py:5 _open", "cli.py:6 .6f",
    ]


def test_regressor_columns_are_counted_only_by_the_rule():
    modules = parse_src()
    assert EXOG_RULE[0] in dict(modules)
    assert column_count_reads(modules) == []


def test_check_sees_a_column_count_outside_the_rule():
    arima = ast.parse(
        "def _check_exog_count(spec, exog):\n    return exog.r != spec.exog_count\n\n"
        "def simulate(spec, exog):\n    return exog.r\n"
    )
    backtest = ast.parse("def _check_exog_count(exog):\n    return len(exog.columns), exog.r\n")
    assert column_count_reads([("arima.py", arima), ("backtest.py", backtest)]) == [
        "arima.py:5", "backtest.py:2",
    ]


def test_start_up_imports_no_scipy_signal_optimize_or_linalg_and_one_lfilter():
    modules = parse_src()
    lagpoly = dict(modules)[FILTER[0]]
    assert [n.name for n in lagpoly.body if isinstance(n, ast.FunctionDef)].count(FILTER[1]) == 1
    assert scipy_imports_and_filters(modules) == []


def test_check_sees_scipy_imports_and_a_second_lfilter():
    lagpoly = ast.parse(
        "import scipy\n\n"
        "def lfilter(b, a, x):\n    return x\n\n"
        "class Filters:\n    def lfilter(self):\n        from scipy.linalg import hankel\n"
    )
    estimation = ast.parse(
        "from scipy import optimize\n"
        "from .lagpoly import lfilter\n\n"
        "if True:\n    import scipy.linalg as la\n\n"
        "def fit(x):\n    from scipy.optimize import minimize\n    from scipy.signal import lfilter\n"
        "    return minimize, lambda: __import__('scipy.linalg')\n"
    )
    arima = ast.parse("import scipy.signal._sigtools\n\ndef lfilter(b, a, x):\n    return x\n")
    assert scipy_imports_and_filters([("lagpoly.py", lagpoly), ("estimation.py", estimation), ("arima.py", arima)]) == [
        "arima.py:1 scipy.signal", "arima.py:3 lfilter",
        "estimation.py:1 scipy.optimize", "estimation.py:5 scipy.linalg", "estimation.py:8 scipy.optimize",
        "estimation.py:9 scipy.signal",
        "lagpoly.py:7 lfilter", "lagpoly.py:8 scipy.linalg",
    ]


def test_check_sees_least_squares():
    # inside a function body too: no search imports ``scipy.optimize`` at fit time
    estimation = ast.parse(
        "def _fit_shape(spec):\n    from scipy.optimize import least_squares, leastsq\n    return leastsq\n"
    )
    assert scipy_imports_and_filters([("estimation.py", estimation)]) == ["estimation.py:2 scipy.optimize"]


def test_private_scipy_routines_are_named_only_by_the_loader():
    modules = parse_src()
    assert LOADER[1] in [getattr(node, "name", None) for node in dict(modules)[LOADER[0]].body]
    assert private_scipy_lookups(modules) == []


def test_check_sees_private_scipy_names_outside_the_loader():
    lagpoly = ast.parse(
        "def _load_scipy_routines(root):\n"
        "    return [getattr(load(f'{root}/_sigtools'), '_linear_filter'), load('scipy.optimize._minpack')._lmder]\n\n"
        "_linear_filter, _lmder = _load_scipy_routines('.')\n"
        "SIGTOOLS = 'scipy.signal._sigtools'\n"
    )
    estimation = ast.parse(
        "from .lagpoly import _lmder\n"
        "from scipy.optimize._minpack import _lmder as lmder\n\n"
        "def _fit_shape(module):\n    return module._lmder, getattr(module, '_lmder'), _lmder\n"
    )
    assert private_scipy_lookups([("lagpoly.py", lagpoly), ("estimation.py", estimation)]) == [
        "lagpoly.py:5 _sigtools",
        "estimation.py:2 _minpack", "estimation.py:2 _minpack", "estimation.py:2 _lmder",
        "estimation.py:5 _lmder", "estimation.py:5 _lmder",
    ]


def test_hours_are_rendered_only_by_format_hour():
    assert isoformat_uses(parse_src()) == []


def test_check_sees_isoformat():
    series = ast.parse(
        "def format_hour(ts):\n    return ts.strftime('%H')\n\n"
        "def where(ts):\n    return f'{ts.isoformat()} is no hour'\n"
    )
    arima = ast.parse("from datetime import datetime\n\nRENDER = datetime.isoformat\n")
    assert isoformat_uses([("series.py", series), ("arima.py", arima)]) == ["series.py:5", "arima.py:3"]


def test_src_runs_no_simplex():
    assert simplex_uses(parse_src()) == []


def test_check_sees_a_simplex():
    estimation = ast.parse(
        "def _run_simplex(objective, x0, options):\n    from scipy.optimize import minimize\n"
        "    return minimize(objective, x0, method='Nelder-Mead')\n\n"
        "def fit_garch(r):\n    \"\"\"Fitted by Nelder-Mead before.\"\"\"\n    return _run_simplex(r, 0, 1)\n"
    )
    backtest = ast.parse("from scipy import optimize\n\nSEARCH = optimize.fmin\n")
    assert simplex_uses([("estimation.py", estimation), ("backtest.py", backtest)]) == [
        "backtest.py:3 fmin",
        "estimation.py:1 _run_simplex", "estimation.py:2 minimize", "estimation.py:3 Nelder-Mead",
        "estimation.py:3 minimize", "estimation.py:7 _run_simplex",
    ]


def test_arima_inverts_the_ma_side_only_in_ma_inverse():
    modules = parse_src()
    assert MA_INVERSE[1] in [getattr(node, "name", None) for node in dict(modules)[MA_INVERSE[0]].body]
    assert all_pole_filters(modules) == []


def test_check_sees_an_all_pole_filter_outside_the_ma_inverse():
    arima = ast.parse(
        "def _ma_inverse(theta, Theta, S, x):\n    return lfilter(_UNIT, Theta, lfilter(_UNIT, theta, x))\n\n"
        "def _innovations(ma, rhs):\n    return lfilter([1.0], ma, rhs) if ma.shape[0] > 1 else rhs\n\n"
        "class Paths:\n    def response(self, ma, x):\n        return lagpoly.lfilter(b=arima._UNIT, a=ma, x=x)\n\n"
        "def simulate(ma, ar, eps, psi):\n    return lfilter(ma, ar, eps), lfilter(psi, [1.0], eps)\n"
    )
    garch = ast.parse("def recursion(beta, x):\n    return lfilter([1.0], beta, x)\n")
    assert all_pole_filters([("arima.py", arima), ("garch.py", garch)]) == ["arima.py:5", "arima.py:9"]


def test_only_the_innovation_kernel_its_jacobian_and_the_response_call_the_ma_inverse():
    modules = parse_src()
    arima_names = [getattr(node, "name", None) for node in dict(modules)[MA_INVERSE_CALLERS[0]].body]
    assert set(MA_INVERSE_CALLERS[1]) <= set(arima_names)
    assert ma_inverse_calls(modules) == []


def test_check_sees_a_second_innovation_function():
    arima = ast.parse(
        "def _ma_inverse(theta, Theta, S, x):\n    return x\n\n"
        "def _concentrated(spec, params, w, U):\n    return _ma_inverse(t, T, S, w)\n\n"
        "def _innovations(spec, params, w, U):\n    return _ma_inverse(t, T, S, w - params.mu)\n\n"
        "def forecast_origins(spec, params, w):\n    return _ma_inverse(t, T, S, 0 * w)\n\n"
        "class Paths:\n    def base(self, w):\n        return arima._ma_inverse(t, T, S, w)\n"
    )
    estimation = ast.parse("def fit(w):\n    return arima._ma_inverse(t, T, S, w)\n")
    assert ma_inverse_calls([("arima.py", arima), ("estimation.py", estimation)]) == [
        "arima.py:8 _innovations", "arima.py:15 Paths", "estimation.py:2 fit",
    ]
