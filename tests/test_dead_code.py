"""Every public top-level function and class in the package, and every
public method and property of its classes, must be reached from the package
itself or its benchmark: a name that only its own unit tests use is dead
code. Methods are matched by attribute name, as functions are. Oracles the
tests need live in the test tree (tests/oracles.py). Code outside the
package that is not a test imports none of its private names, so the CLI
stays the one place that parses arguments, and no package module imports a
private name of another, so each module's public names are its interface."""

import ast
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_SRC = _ROOT / "src" / "qmeasure"
_USERS = (_SRC, _ROOT / "perfbench")
_TESTS = _ROOT / "tests"

def public_definitions(source: str) -> set[str]:
    """Names of the public top-level functions and classes of a module, and
    of the public methods and properties those classes define."""
    found = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.ClassDef):
            found |= {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            found.add(node.name)
    return {name for name in found if not name.startswith("_")}


def referenced_names(source: str) -> set[str]:
    """Every name a module reads or reaches as an attribute, except inside
    a definition that binds that same name. Importing a name without using
    it, as a re-export list does, does not count."""
    found = set()

    def visit(node, enclosing):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            enclosing = enclosing | {node.name}
        if isinstance(node, ast.Name) and node.id not in enclosing:
            found.add(node.id)
        elif isinstance(node, ast.Attribute) and node.attr not in enclosing:
            found.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child, enclosing)

    visit(ast.parse(source), frozenset())
    return found


def unreferenced(defining_dir: Path, user_dirs) -> set[str]:
    defined = set()
    for path in defining_dir.glob("*.py"):
        defined |= public_definitions(path.read_text())
    used = set()
    for directory in user_dirs:
        for path in directory.rglob("*.py"):
            used |= referenced_names(path.read_text())
    return defined - used


def test_lint_finds_a_name_only_its_definition_mentions(tmp_path):
    (tmp_path / "mod.py").write_text(
        "def used():\n    return 1\n\n"
        "def lonely(n):\n    return lonely(n - 1) if n else used()\n\n"
        "class Kept:\n"
        "    def read(self):\n        return self.size\n\n"
        "    @property\n    def size(self):\n        return 1\n\n"
        "    def again(self):\n        return self.again()\n\n"
        "    def _hidden(self):\n        pass\n\n"
        "def _private():\n    pass\n"
    )
    (tmp_path / "user.py").write_text("from mod import Kept, lonely\n\nk = Kept().read()\n")
    assert unreferenced(tmp_path, [tmp_path]) == {"lonely", "again"}


def test_every_public_name_is_reached():
    dead = unreferenced(_SRC, _USERS)
    assert dead == set(), "public names nothing but tests reach: " + ", ".join(sorted(dead))


def test_every_oracle_is_read_by_a_test_module():
    # an oracle nothing compares against checks nothing
    defined = public_definitions((_TESTS / "oracles.py").read_text())
    read = set()
    for path in _TESTS.glob("test_*.py"):
        read |= referenced_names(path.read_text())
    unread = defined - read
    assert unread == set(), "oracles no test module reads: " + ", ".join(sorted(unread))


def shared_member_names(directory: Path) -> set[str]:
    """Public method, property and field names that two or more top-level
    classes of the modules of directory define. A field is an annotated name
    in the class body, as a dataclass declares it."""
    owners: dict[str, int] = {}
    for path in directory.glob("*.py"):
        for node in ast.parse(path.read_text()).body:
            if not isinstance(node, ast.ClassDef):
                continue
            members = {m.name for m in node.body if isinstance(m, ast.FunctionDef)}
            members |= {
                m.target.id
                for m in node.body
                if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)
            }
            for name in members:
                if not name.startswith("_"):
                    owners[name] = owners.get(name, 0) + 1
    return {name for name, count in owners.items() if count > 1}


def test_lint_finds_member_names_two_classes_share(tmp_path):
    (tmp_path / "a.py").write_text(
        "class A:\n    size: int\n    kind: str\n\n    def read(self):\n        pass\n\n"
        "    def _hidden(self):\n        pass\n"
    )
    (tmp_path / "b.py").write_text(
        "class B:\n    @property\n    def size(self):\n        return 1\n\n"
        "    def read(self):\n        pass\n\n    def _hidden(self):\n        pass\n\n"
        "def kind():\n    pass\n"
    )
    assert shared_member_names(tmp_path) == {"size", "read"}


def test_member_names_two_classes_share_are_pinned():
    # the dead-code lint matches members by name alone, so a member stays
    # "reached" while another class's member of the same name is read: each
    # name here was checked for callers by hand, and a new one fails until
    # its callers are checked and it is added
    assert shared_member_names(_SRC) == {
        "characters",
        "dim",
        "n_points",
        "seed",
        "trials",
        "worst",
    }


def callers(directory: Path, *names: str) -> set[str]:
    """"module.function" for each top-level function or method of the
    modules of directory whose body calls one of names, each the callee as
    it is written, such as "np.linalg.eigh" or "SpectralAlgebra"."""
    found = set()
    for path in directory.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.FunctionDef):
                continue
            if any(
                isinstance(call, ast.Call) and ast.unparse(call.func) in names
                for call in ast.walk(node)
            ):
                found.add(f"{path.stem}.{node.name}")
    return found


def test_lint_finds_every_caller_of_eigh(tmp_path):
    (tmp_path / "a.py").write_text(
        "import numpy as np\n\n"
        "def split(g):\n    if g:\n        w, v = np.linalg.eigh(g)\n"
        "    return np.linalg.eigvalsh(g)\n\n"
        "class K:\n    def solve(self, g):\n        return [numpy.linalg.eigh(x) for x in g]\n\n"
        "def plain(g):\n    return g\n\n"
        "def build(g):\n    return K(g), K\n"
    )
    assert callers(tmp_path, "np.linalg.eigh", "numpy.linalg.eigh") == {"a.split", "a.solve"}
    assert callers(tmp_path, "K") == {"a.build"}


def test_spectra_come_from_one_eigensolver_route():
    # an observable's spectrum, its dynamics included, comes from the
    # algebra's split loop; only a density's factor rows take eigh besides
    assert callers(_SRC, "np.linalg.eigh", "numpy.linalg.eigh") == {
        "algebra._spectrum",
        "measurement.factor_rows",
    }


def test_positivity_is_judged_in_one_place():
    # a density's lowest eigenvalue costs a dense solve, 0.35 s at d = 1024:
    # only the density check takes it, and verify's joint diagonalization
    # check to scale its drawn Hermitians, so no run judges positivity twice
    assert callers(_SRC, "np.linalg.eigvalsh", "numpy.linalg.eigvalsh") == {
        "states.density_matrix",
        "verification.check_joint_diagonalization",
    }


def test_lint_finds_a_second_caller_of_exp(tmp_path):
    (tmp_path / "algebra.py").write_text(
        "import numpy as np\n\ndef evolve(t, x):\n    return np.exp(-1j * t * x)\n"
    )
    (tmp_path / "verification.py").write_text(
        "import numpy\n\ndef group_law(t, x):\n    return numpy.exp(-1j * t * x)\n\n"
        "def other(x):\n    return np.expm1(x), np.exp\n"
    )
    assert callers(tmp_path, "np.exp", "numpy.exp") == {
        "algebra.evolve",
        "verification.group_law",
    }


def test_dynamics_come_from_one_exponential_route():
    # exp(-itH) is formed in one place, for a stack of cases, so no check
    # can evolve its states by a second route
    assert callers(_SRC, "np.exp", "numpy.exp") == {"algebra.evolve"}


def test_spectral_algebras_come_from_three_producers():
    # SpectralAlgebra checks nothing: the split loop's spectra, validated once
    # per stack, and the two closed-form readouts meet its preconditions, and
    # no other code may build one, from outside input or otherwise
    assert callers(_SRC, "SpectralAlgebra", "algebra.SpectralAlgebra") == {
        "algebra.generate_algebra",
        "measurement.pointer_readout",
        "scenario.cat_readout",
    }


def private_imports(source: str) -> set[str]:
    """The dotted names of the package a module imports that have a private
    part, as in `from qmeasure.cli import _Parser` or `import qmeasure._m`.
    A relative import is read as one from inside the package, which is flat:
    `from .cli import _Parser` and `from . import _m` name the same two."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            module = ".".join(["qmeasure", *filter(None, [node.module])])
            names = [f"{module}.{alias.name}" for alias in node.names]
        elif isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        else:
            continue
        found |= {
            name
            for name in names
            if name.split(".")[0] == "qmeasure"
            and any(part.startswith("_") and not part.endswith("__") for part in name.split("."))
        }
    return found


def test_no_code_outside_the_package_imports_a_private_name():
    assert private_imports(
        "from qmeasure.cli import _Parser, main\nimport qmeasure._m, numpy._x\n"
    ) == {"qmeasure.cli._Parser", "qmeasure._m"}
    outside = [
        path
        for path in _ROOT.rglob("*.py")
        if not path.is_relative_to(_SRC)
        and "tests" not in path.relative_to(_ROOT).parts
        and not path.relative_to(_ROOT).parts[0].startswith(".")
    ]
    assert _ROOT / "perfbench" / "run.py" in outside
    found = {
        f"{path.relative_to(_ROOT)}: {name}"
        for path in outside
        for name in private_imports(path.read_text())
    }
    assert found == set(), "private package names imported: " + ", ".join(sorted(found))


def test_no_package_module_imports_a_private_name_of_another():
    assert private_imports(
        "from .cli import _Parser, main\nfrom . import _m, linalg\n"
        "from .errors import QmError\nfrom __future__ import annotations\n"
    ) == {"qmeasure.cli._Parser", "qmeasure._m"}
    found = {
        f"{path.name}: {name}"
        for path in _SRC.glob("*.py")
        for name in private_imports(path.read_text())
    }
    assert found == set(), "private names imported between package modules: " + ", ".join(
        sorted(found)
    )


def unread_imports(directory: Path) -> set[str]:
    """"module: name" for each name a module of directory binds by an import
    and never reads. A __future__ import binds no name."""
    found = set()
    for path in directory.glob("*.py"):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {alias.asname or alias.name for alias in node.names}
        read = {
            node.id
            for node in ast.walk(tree)
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
        }
        found |= {f"{path.stem}: {name}" for name in imported - read}
    return found


def test_lint_finds_an_import_its_module_never_reads(tmp_path):
    (tmp_path / "test_mod.py").write_text(
        "from __future__ import annotations\n\n"
        "import json as j, os\n"
        "import numpy.linalg\n"
        "from pathlib import Path, PurePath as Pure\n"
        "from x import (kept, lost)\n\n"
        "def test_it(Path=None):\n"
        "    return os.sep, numpy.pi, Pure, kept\n"
    )
    (tmp_path / "helper.py").write_text("import sys\n\nprint(sys.argv)\n")
    assert unread_imports(tmp_path) == {"test_mod: j", "test_mod: Path", "test_mod: lost"}


def test_every_import_of_a_test_module_is_read():
    unread = unread_imports(_TESTS)
    assert unread == set(), "imported and never read: " + ", ".join(sorted(unread))
