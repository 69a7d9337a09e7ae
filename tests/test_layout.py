"""Layering rules: no module of the package reaches into another's privates,
the scalar geometry stays off numpy's 3-vector cross and norm, the circle
tests of moduli stay off arcsin, the batch oracle and the band mask stay
off einsum, only sphere builds a thread pool, keeps a per-thread cache or
draws the uniform sample, only moduli computes the sampler's height cap,
importing the package loads neither scipy nor what only some calls need
and starts no thread, and every command runs with scipy blocked."""

import ast
import os
import subprocess
import sys
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "pentamod"


def _private(name):
    return name.startswith("_") and not (name.startswith("__") and name.endswith("__"))


def _violations(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    siblings = set()
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("pentamod")):
            module = (node.module or "").removeprefix("pentamod").lstrip(".")
            if any(_private(part) for part in module.split(".") if part):
                found.append(f"line {node.lineno}: imports from private module {module!r}")
            for alias in node.names:
                if _private(alias.name):
                    found.append(f"line {node.lineno}: imports private name {alias.name!r}")
                elif not module:
                    siblings.add(alias.asname or alias.name)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("pentamod."):
                    if any(_private(part) for part in alias.name.split(".")):
                        found.append(f"line {node.lineno}: imports private module {alias.name!r}")
                    if alias.asname:
                        siblings.add(alias.asname)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in siblings and _private(node.attr)):
            found.append(f"line {node.lineno}: reads {node.value.id}.{node.attr}")
    return found


def test_no_module_reaches_into_private_names():
    modules = sorted(PACKAGE.glob("*.py"))
    assert modules
    bad = {p.name: v for p in modules if (v := _violations(p))}
    assert not bad, bad


def test_layout_check_catches_each_kind(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from ._helpers import f\n"
                   "from .moduli import _tables\n"
                   "from . import charts\n"
                   "x = charts._cache\n"
                   "y = charts.geometry\n", encoding="utf-8")
    found = _violations(src)
    assert len(found) == 3
    assert "line 1" in found[0] and "line 2" in found[1] and "line 4" in found[2]


# the scalar geometry of these modules goes through sphere.cross3 and
# sphere.norm3, which give numpy's bits at a fraction of its per-call cost
SCALAR_MODULES = ("sphere.py", "pentagon.py")
_NUMPY_VECTOR_OPS = ("numpy.cross", "numpy.linalg.norm")


def _dotted(node):
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        return ".".join([node.id] + parts[::-1])
    return None


def _numpy_vector_ops(path, ops=_NUMPY_VECTOR_OPS):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    numpy_names = {"numpy"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            numpy_names |= {a.asname for a in node.names if a.name == "numpy" and a.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and (name := _dotted(node)):
            head, _, rest = name.partition(".")
            if head in numpy_names and f"numpy.{rest}" in ops:
                found.append(f"line {node.lineno}: uses {name}")
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                if f"{node.module}.{alias.name}" in ops:
                    found.append(f"line {node.lineno}: imports {node.module}.{alias.name}")
    return found


def test_scalar_geometry_avoids_numpy_cross_and_norm():
    bad = {name: v for name in SCALAR_MODULES if (v := _numpy_vector_ops(PACKAGE / name))}
    assert not bad, bad


def test_numpy_vector_op_check_catches_each_kind(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('"""np.cross in a docstring is fine."""\n'
                   "import numpy as np\n"
                   "import numpy\n"
                   "from numpy.linalg import norm\n"
                   "a = np.cross(x, y)\n"
                   "b = numpy.linalg.norm(a)\n"
                   "c = np.linalg.det(a) + np.dot(a, a)\n"
                   "f = np.cross\n", encoding="utf-8")
    found = _numpy_vector_ops(src)
    assert sorted(found) == ["line 4: imports numpy.linalg.norm", "line 5: uses np.cross",
                             "line 6: uses numpy.linalg.norm", "line 8: uses np.cross"]


# moduli decides sides of and nearness to its dividing circles on the sines
# p.c themselves, compared with the sine of a tolerance; arcsin on every
# dot product would add cost and nothing else
ANGLE_FREE_MODULES = ("moduli.py",)
_NUMPY_ANGLE_OPS = ("numpy.arcsin",)


def test_circle_tests_avoid_arcsin():
    bad = {name: v for name in ANGLE_FREE_MODULES
           if (v := _numpy_vector_ops(PACKAGE / name, _NUMPY_ANGLE_OPS))}
    assert not bad, bad


def test_arcsin_check_catches_each_kind(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('"""np.arcsin in a docstring is fine."""\n'
                   "import numpy as np\n"
                   "from numpy import arcsin\n"
                   "a = np.arcsin(np.clip(x, -1.0, 1.0))\n"
                   "b = np.arccos(x) + np.sin(x) + math.asin(x)\n"
                   "f = np.arcsin\n", encoding="utf-8")
    found = _numpy_vector_ops(src, _NUMPY_ANGLE_OPS)
    assert sorted(found) == ["line 3: imports numpy.arcsin", "line 4: uses np.arcsin",
                             "line 6: uses np.arcsin"]


# the batch oracle and the band mask write out the order of every sum
# (pentagon._dot, _length, moduli._quadric_rows): einsum picks its own, and
# rounds a row-dot apart by the layout of its operands
ORDERED_SUM_MODULES = ("pentagon.py", "moduli.py")
_NUMPY_SUM_OPS = ("numpy.einsum",)


def test_batch_oracle_writes_out_its_sums():
    bad = {name: v for name in ORDERED_SUM_MODULES
           if (v := _numpy_vector_ops(PACKAGE / name, _NUMPY_SUM_OPS))}
    assert not bad, bad


# sphere.map_sample is the one owner of the cut points, the row ranges and
# the thread pool; every sampling caller goes through it
POOL_OWNER = "sphere.py"


def _pool_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names
                      if a.name.rpartition(".")[2] == "ThreadPoolExecutor"]
        elif isinstance(node, ast.Attribute) and node.attr == "ThreadPoolExecutor":
            found.append(f"line {node.lineno}: uses {_dotted(node)}")
    return found


def test_only_sphere_builds_a_thread_pool():
    bad = {p.name: v for p in sorted(PACKAGE.glob("*.py"))
           if p.name != POOL_OWNER and (v := _pool_uses(p))}
    assert not bad, bad
    assert _pool_uses(PACKAGE / POOL_OWNER)


def test_pool_check_catches_each_kind(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('"""A ThreadPoolExecutor in a docstring is fine."""\n'
                   "import concurrent.futures as cf\n"
                   "from concurrent.futures import ThreadPoolExecutor as Pool\n"
                   "pool = cf.ThreadPoolExecutor(2)\n"
                   "other = cf.ProcessPoolExecutor\n", encoding="utf-8")
    assert _pool_uses(src) == ["line 3: imports ThreadPoolExecutor",
                               "line 4: uses cf.ThreadPoolExecutor"]


# sphere.scratch is the one per-thread array cache: a second would keep
# buffers of its own in every thread, beside the first, and its arrays would
# not know the frames of the other
CACHE_OWNER = "sphere.py"


def _thread_local_uses(path):
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    modules = {"threading", "_threading_local"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            modules |= {a.asname for a in node.names if a.name in modules and a.asname}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module in ("threading", "_threading_local"):
            found += [f"line {node.lineno}: imports {node.module}.local" for a in node.names
                      if a.name == "local"]
        elif (isinstance(node, ast.Attribute) and node.attr == "local"
              and isinstance(node.value, ast.Name) and node.value.id in modules):
            found.append(f"line {node.lineno}: uses {node.value.id}.local")
    return found


def test_only_sphere_keeps_a_per_thread_cache():
    bad = {p.name: v for p in sorted(PACKAGE.glob("*.py"))
           if p.name != CACHE_OWNER and (v := _thread_local_uses(p))}
    assert not bad, bad
    assert _thread_local_uses(PACKAGE / CACHE_OWNER)


def test_thread_local_check_catches_each_kind(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('"""A threading.local in a docstring is fine."""\n'
                   "import threading as th\n"
                   "from threading import local as Local\n"
                   "class Cache(th.local):\n"
                   "    pass\n"
                   "data = threading.local()\n"
                   "lock = th.Lock()\n", encoding="utf-8")
    assert sorted(_thread_local_uses(src)) == ["line 3: imports threading.local",
                                                "line 4: uses th.local",
                                                "line 6: uses threading.local"]


# sphere owns the uniform sample: only it builds a Philox generator or
# draws rows through _sample_rows, so every caller's rows are the sample's.
# moduli alone computes the height cap of the moduli (top_z, from the
# M-chart forms _m_chart_R); areas takes it from there and keeps no copy
SAMPLE_OWNER = "sphere.py"
_SAMPLE_NAMES = ("Philox", "_sample_rows")
CAP_OWNER = "moduli.py"
_CAP_NAMES = ("top_z", "_m_chart_R")


def _defines_or_uses(path, names):
    """Where path defines, imports or reads a function or name of names."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.FunctionDef) and node.name in names:
            found.append(f"line {node.lineno}: defines {node.name}")
        elif isinstance(node, ast.Name) and node.id in names:
            found.append(f"line {node.lineno}: uses {node.id}")
        elif isinstance(node, ast.Attribute) and node.attr in names:
            found.append(f"line {node.lineno}: uses {_dotted(node) or node.attr}")
        elif isinstance(node, ast.ImportFrom):
            found += [f"line {node.lineno}: imports {a.name}" for a in node.names
                      if a.name in names]
    return found


def _near_constants(path, values, tol=1e-3):
    """The float literals of path within tol of any of values, up to sign
    (a literal -x is the unary minus of x)."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [f"line {node.lineno}: {node.value!r}" for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and isinstance(node.value, float)
            and any(abs(node.value - abs(v)) < tol for v in values)]


def test_only_sphere_draws_the_sample():
    bad = {p.name: v for p in sorted(PACKAGE.glob("*.py"))
           if p.name != SAMPLE_OWNER and (v := _defines_or_uses(p, _SAMPLE_NAMES))}
    assert not bad, bad
    assert len(_defines_or_uses(PACKAGE / SAMPLE_OWNER, _SAMPLE_NAMES)) >= 3


def test_only_moduli_computes_the_cap():
    # the caps of n = 4 and 5 (n = 3's is 0) appear as no literal elsewhere;
    # other modules may read moduli.top_z, never define or rebuild it
    from pentamod import moduli

    caps = [moduli.top_z(n) for n in (4, 5)]
    for p in sorted(PACKAGE.glob("*.py")):
        if p.name != CAP_OWNER:
            found = _defines_or_uses(p, _CAP_NAMES)
            assert not [f for f in found if "_m_chart_R" in f or "defines" in f], (p.name, found)
            assert not _near_constants(p, caps), p.name
    assert any(f.endswith("imports top_z") for f in _defines_or_uses(PACKAGE / "areas.py",
                                                                      _CAP_NAMES))
    # and it is computed on first use, not at import
    code = "import pentamod, pentamod.cli; print(pentamod.moduli.top_z.cache_info().currsize)"
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["0"]


def test_sample_and_cap_checks_catch_each_kind(tmp_path):
    src = tmp_path / "m.py"
    src.write_text('"""A Philox in a docstring is fine."""\n'
                   "import numpy as np\n"
                   "from .sphere import _sample_rows\n"
                   "g = np.random.Philox(3)\n"
                   "def top_z(n):\n"
                   "    return -0.4704 + _m_chart_R(n)\n", encoding="utf-8")
    assert _defines_or_uses(src, _SAMPLE_NAMES) == ["line 3: imports _sample_rows",
                                                    "line 4: uses np.random.Philox"]
    assert sorted(_defines_or_uses(src, _CAP_NAMES)) == ["line 5: defines top_z",
                                                         "line 6: uses _m_chart_R"]
    assert _near_constants(src, [-0.470415]) == ["line 6: 0.4704"]
    assert _near_constants(src, [-0.4725]) == []


def test_import_does_not_load_scipy():
    # scipy and mpmath are test-only dependencies, as sympy would be: the
    # package runs on numpy alone, and importing it must not pull them in
    # through another package either.  The thread pool of map_sample and the
    # quadrature rule load on first use, so importing starts no thread and
    # pays for neither.
    code = ("import sys, threading, pentamod, pentamod.cli; "
            "print(sorted(m for m in sys.modules "
            "if m.startswith(('scipy', 'mpmath', 'sympy', 'concurrent.futures', "
            "'numpy.polynomial')))); "
            "print(threading.active_count())")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60)
    assert out.stdout.split() == ["[]", "1"]


# a sys.meta_path finder that refuses scipy, then every CLI command in turn
_WITHOUT_SCIPY = """
import sys

class NoScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError("scipy is blocked")

sys.meta_path.insert(0, NoScipy())
try:
    import scipy
    sys.exit("scipy was not blocked")
except ImportError:
    pass
from pentamod import cli
codes = [cli.main(argv) for argv in {commands!r}]
print("exit codes", codes)
"""


def test_cli_runs_without_scipy(tmp_path):
    commands = [["area", "--solid", "5", "--mc", "100000", "42"],
                ["check", "--solid", "3", "--chart", "M", "--point", "-0.17-0.17i"],
                ["verify", "--solid", "3", "--samples", "20000", "--seed", "7"],
                ["render", "--solid", "4", "--out", str(tmp_path / "m.svg"),
                 "--include", "moduli-boundary", "reduction-curves"],
                ["curve", "gammaA", "--solid", "3", "--samples", "16"]]
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    out = subprocess.run([sys.executable, "-c", _WITHOUT_SCIPY.format(commands=commands)],
                         env=env, capture_output=True, text=True, timeout=120)
    assert out.returncode == 0, out.stderr
    assert out.stdout.splitlines()[-1] == f"exit codes {[0] * len(commands)}", out.stdout
    assert (tmp_path / "m.svg").stat().st_size > 0
