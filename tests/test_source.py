"""Checks on the library source itself."""

import ast
import doctest
import hashlib
import importlib
import inspect
import os
import pkgutil
import re
import runpy
import subprocess
import sys
import typing
from pathlib import Path

import pytest

import ksing
import ksing.cli
import ksing.commands

from conftest import modules_after_main

SOURCE = Path(ksing.__file__).resolve().parent


def test_library_has_no_assert_statements():
    # ``python -O`` strips asserts, so a check written as one vanishes.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SOURCE.glob("*.py"))) > 5
    assert found == []


def test_docstring_examples_pass():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in sorted(SOURCE.glob("*.py"))}
    results = {
        stem: doctest.testmod(
            ksing if stem == "__init__" else importlib.import_module(f"ksing.{stem}")
        )
        for stem in sources
    }
    assert sum(r.failed for r in results.values()) == 0
    assert sum(r.attempted for r in results.values()) >= 5
    # Each module's examples run as its own, the verification module's too.
    assert [s for s, text in sources.items() if ">>>" in text and not results[s].attempted] == []


def test_all_names_resolve_once_in_sorted_order():
    names = ksing.__all__
    assert [name for name in names if not hasattr(ksing, name)] == []
    assert len(set(names)) == len(names)
    assert names == sorted(names)


def test_library_imports_only_the_standard_library():
    # pyproject.toml declares no dependencies; numpy and hypothesis serve
    # the tests only.
    imported = set()
    for path in sorted(SOURCE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                imported.update((path.name, a.name.partition(".")[0]) for a in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add((path.name, node.module.partition(".")[0]))
    assert {"argparse", "math"} <= {top for _, top in imported}
    assert sorted(i for i in imported if i[1] not in sys.stdlib_module_names) == []


def test_library_has_no_rational_or_decimal_arithmetic():
    # linalg promises exact integer work with no floating point; the
    # Pfaffian and the determinant divide exactly instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import) and any(
            a.name.partition(".")[0] in ("fractions", "decimal") for a in node.names
        )
        or isinstance(node, ast.ImportFrom) and node.module in ("fractions", "decimal")
    ]
    assert found == []


def _float_use(node) -> bool:
    """Whether node is a float literal, a true division, ``float`` or a
    float function of ``math``."""
    return (
        isinstance(node, ast.Constant) and isinstance(node.value, float)
        or isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Div)
        or isinstance(node, ast.Name) and node.id == "float"
        or isinstance(node, ast.Attribute) and node.attr in ("log", "log2", "log10", "sqrt")
        or isinstance(node, ast.alias) and node.name in ("log", "log2", "log10", "sqrt")
    )


def test_library_has_no_floating_point():
    # Every answer is exact: sizes and prime powers are tested on integers
    # (math.isqrt, bit_length, pow), never through a float that can round.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if _float_use(node)
    ]
    assert found == []


def test_library_starts_no_threads_or_processes():
    # The sweep runs in the calling process; gains come from the
    # arithmetic, not from workers.
    workers = ("multiprocessing", "threading", "concurrent")
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Import)
        and any(a.name.partition(".")[0] in workers for a in node.names)
        or isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.partition(".")[0] in workers
    ]
    assert found == []


def test_unchecked_rows_are_wrapped_only_inside_linalg():
    # ``linalg._unchecked`` skips the entry checks, so every row it wraps
    # must be built from checked matrices within that module.
    roots = [SOURCE, Path(__file__).resolve().parent, SOURCE.parents[1] / "perfbench"]
    users = {
        path.name
        for root in roots
        for path in sorted(root.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Name) and node.id == "_unchecked"
        or isinstance(node, ast.Attribute) and node.attr == "_unchecked"
        or isinstance(node, ast.alias) and node.name == "_unchecked"
    }
    assert users == {"linalg.py"}


def test_cartan_matrix_and_its_inverse_record_their_first_column():
    # unipotent_inverse and theorem_matrix refuse a matrix without a
    # recorded column; with it, each solves one column and builds no row
    # of C or C^-1.
    c = ksing.cartan_matrix([1, 1, 3, 3])
    inverse = ksing.unipotent_inverse(c)
    assert c.first_column == (1, 1, 3, 3)
    assert inverse.first_column == (1, -1, -2, 2)
    assert inverse.entries[3] == (2, -2, -1, 1)


def _fresh_output(code: str) -> str:
    """What ``python -c code`` prints, stripped, in a fresh process."""
    env = {**os.environ, "PYTHONPATH": str(SOURCE.parent)}
    out = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    ).stdout
    return out.strip()


def _loaded_by_import(module: str, imports: str = "ksing, ksing.cli") -> str:
    """What ``module in sys.modules`` prints after ``import <imports>``."""
    return _fresh_output(f"import sys, {imports}; print({module!r} in sys.modules)")


def test_cli_import_leaves_multiprocessing_out():
    # No module of the library imports it (see the source test above); a
    # dependency that did would make it most of what ``import ksing.cli``
    # costs.
    assert _loaded_by_import("multiprocessing") == "False"


def test_import_leaves_dataclasses_out():
    # A frozen dataclass generates and compiles its methods at every import,
    # about 1 ms a class; the result types are named tuples instead.
    assert _loaded_by_import("dataclasses") == "False"


def test_import_leaves_json_out():
    # Only the quiver's JSON export and import need json; ksing.cli loads
    # it for its own output.
    assert _loaded_by_import("json", "ksing") == "False"


@pytest.mark.parametrize("module", ["ksing.quiver", "ksing.verification", "ksing.smith"])
def test_import_leaves_the_quiver_and_the_verification_code_out(module):
    # No compute or sweep answer runs them, nor the general Smith
    # eliminations; without bytecode caching every process would compile
    # them.
    assert _loaded_by_import(module, "ksing") == "False"


@pytest.mark.parametrize(
    "module, name",
    [("quiver", "build_quiver"), ("verification", "verify_paper"), ("smith", "smith_certificate")],
)
def test_the_package_loads_a_late_module_on_first_read(module, name):
    # Unbound after ``import ksing``, the module is read through the
    # package's __getattr__, which imports it and binds it on the package.
    code = (
        f"import sys, ksing; unbound = {module!r} not in vars(ksing); mod = ksing.{module}; "
        f"print(unbound, mod is sys.modules['ksing.{module}'] is ksing.{module},"
        f" mod.{name} is ksing.{name})"
    )
    assert _fresh_output(code) == "True True True"


@pytest.mark.parametrize(
    "module", ["json", "csv", "ksing.quiver", "ksing.verification", "ksing.smith"]
)
def test_cli_import_leaves_what_only_some_commands_need_out(module):
    # json serves --format json, csv the sweep, the quiver and the
    # verification code the quiver, cartan --check-bruteforce, snf and
    # verify-paper commands, the Smith eliminations snf and the family and
    # fixture sources.
    assert _loaded_by_import(module, "ksing.cli") == "False"


def test_cli_import_leaves_the_single_set_commands_out():
    assert _loaded_by_import("ksing.commands", "ksing.cli") == "False"


def test_a_sweep_never_loads_the_single_set_commands():
    assert "ksing.commands" not in modules_after_main(["sweep", "--n", "2-5", "--primes", "2"])


def test_compute_loads_the_commands_but_not_the_quiver_or_the_verification_code():
    loaded = modules_after_main(
        ["compute", "--n", "5", "--d", "3", "--weights", "1,2,2", "--prime", "5"]
    )
    assert "ksing.commands" in loaded
    assert not {"ksing.quiver", "ksing.verification"} & loaded


def test_pipeline_answers_leave_the_smith_eliminations_out():
    # The content of a pipeline matrix leaves |det| / c**k = 1, so no
    # compute_ktheory cell of the family-snf or wide-lowdim workload and no
    # sweep row reaches _divisors_mod; the family source does.
    workloads = runpy.run_path(str(SOURCE.parents[1] / "perfbench" / "workloads.py"))
    lo, hi = workloads["FAMILY_N"]
    sets = [(n, n, (1,) * n) for n in range(lo, hi + 1)] + list(workloads["WIDE_SETS"])
    code = (
        "import sys, ksing\n"
        f"for n, d, w in {sets!r}:\n"
        "    ksing.compute_ktheory(ksing.validate_params(n, d, w), ksing.validate_prime_power(2, 3))\n"
        "print('ksing.smith' in sys.modules)"
    )
    assert _fresh_output(code) == "False"
    sweep = ["sweep", "--n", "2-8", "--weights-mode", "all", "--primes", "2,3"]
    assert "ksing.smith" not in modules_after_main(sweep)
    family = ["compute", "--n", "4", "--d", "4", "--weights", "1,1,1,1", "--prime", "2"]
    assert "ksing.smith" in modules_after_main([*family, "--source", "family"])


def test_each_single_set_handler_on_the_cli_is_the_one_in_commands():
    handlers = set(ksing.cli._DISPATCH.values()) - {"_cmd_sweep"}
    assert len(handlers) == 6
    for name in handlers:
        fn = getattr(ksing.cli, name)
        assert fn.__module__ == "ksing.commands"
        assert fn is getattr(ksing.commands, name)


#: Signature and the first 16 hex digits of the docstring's SHA-256, as they
#: were before the move, of each name that moved to a module loaded on first
#: use and of each function perfbench's tracer wraps on a layer.
PINNED = {
    ("params", "validate_params"): ("(n, d, weights) -> 'QuotientParams'", "036f507f3fd64b04"),
    ("params", "iter_weight_tuples"): (
        "(n: 'int', d: 'int') -> 'Iterator[tuple[int, ...]]'", "9b02ca330d8dcd6a"
    ),
    ("cartan", "path_counts_gf"): ("(params: 'QuotientParams') -> 'list[int]'", "3ea58ad787bbb2e8"),
    ("cartan", "cartan_matrix"): ("(counts: 'list[int]') -> 'IntMatrix'", "0ae117130f6ce77d"),
    ("linalg", "smith_normal_form"): ("(m: 'IntMatrix') -> 'tuple[int, ...]'", "3a579202dfa01260"),
    ("linalg", "unipotent_inverse"): ("(m: 'IntMatrix') -> 'IntMatrix'", "2f4bc995475a2b01"),
    ("linalg", "theorem_matrix"): ("(c: 'IntMatrix', d: 'int') -> 'IntMatrix'", "ee69469f3010924f"),
    ("linalg", "determinant"): ("(m: 'IntMatrix') -> 'int'", "0d5e24957521e586"),
    ("ktheory", "pipeline_matrix"): ("(params: 'QuotientParams') -> 'IntMatrix'", "8aab5987b5759d3e"),
    ("ktheory", "compute_ktheory"): (
        "(params: 'QuotientParams', coeff: 'PrimePower', source: 'str' = 'theorem-pipeline')"
        " -> 'KTheoryReport'",
        "e026b4257b450620",
    ),
    ("quiver", "build_quiver"): ("(params: 'QuotientParams') -> 'Quiver'", "979994513c28fa0c"),
    ("quiver", "export_quiver"): ("(q: 'Quiver', format: 'str') -> 'str'", "bb23e7e2c36c4ca8"),
    ("quiver", "quiver_from_json"): ("(text: 'str') -> 'Quiver'", "9b0a644cc2d212c7"),
    ("cartan", "path_counts_bruteforce"): ("(q: 'Quiver') -> 'list[int]'", "63010d74c30fea39"),
    ("linalg", "pfaffian"): ("(m: 'IntMatrix') -> 'int'", "7ecd26b2818086c6"),
    ("linalg", "smith_certificate"): (
        "(m: 'IntMatrix') -> 'tuple[IntMatrix, IntMatrix, IntMatrix]'", "9370d5860855c327"
    ),
    ("ktheory", "verify_paper"): (
        "(fixture: 'str', d: 'Optional[int]' = None) -> 'VerificationReport'", "64e4f1e7647f288f"
    ),
    ("ktheory", "family_matrix_closed_form"): ("(d: 'int') -> 'IntMatrix'", "d20a79edbcabfd31"),
    ("ktheory", "multiset_number"): ("(d: 'int', r: 'int') -> 'int'", "fa8555d25d8b44b5"),
    ("ktheory", "mod_q_kernel_cokernel"): (
        "(m: 'IntMatrix', q: 'int') -> 'tuple[FiniteAbelianGroup, FiniteAbelianGroup]'",
        "94dc1f47b61eb4bb",
    ),
}


def test_each_traced_name_is_one_object_on_its_layer_and_the_package():
    # perfbench's tracer wraps every binding of these functions that is the
    # object it finds on the layer, so a second object under one of the
    # names (a forwarding stub, say) would escape it.
    layers = runpy.run_path(str(SOURCE.parents[1] / "perfbench" / "tracer.py"))["LAYERS"]
    for layer, names in layers.items():
        module = importlib.import_module(f"ksing.{layer}")
        for name in names:
            fn = getattr(module, name)
            assert fn.__module__ in (module.__name__, "ksing.verification"), name
            assert getattr(sys.modules[fn.__module__], name) is fn
            if layer != "cli":
                assert getattr(ksing, name) is fn, name
    assert {(layer, name) for layer, names in layers.items() for name in names} - {
        ("cli", "main")
    } <= set(PINNED)


@pytest.mark.parametrize("layer, name", sorted(PINNED))
def test_traced_and_moved_names_keep_their_docstring_and_signature(layer, name):
    fn = getattr(importlib.import_module(f"ksing.{layer}"), name)
    assert fn is getattr(ksing, name)
    signature, digest = PINNED[layer, name]
    assert str(inspect.signature(fn)) == signature
    assert hashlib.sha256(fn.__doc__.encode()).hexdigest()[:16] == digest


def test_verification_report_keeps_its_fields_and_docstring():
    report = ksing.ktheory.VerificationReport
    assert report is ksing.VerificationReport is ksing.verification.VerificationReport
    assert hashlib.sha256(report.__doc__.encode()).hexdigest()[:16] == "d0613fde5b818cae"
    assert report._fields == (
        "fixture", "params", "reference_matrix", "computed_matrix", "agree", "entry_diffs",
        "reference_det", "computed_det", "pfaffian", "computed_det_is_square", "notes",
    )


def test_internal_callers_read_the_binding_on_their_module(monkeypatch, capsys):
    # A wrapper set on a name bound on first use is what the library calls.
    calls = []

    def recording(module, name):
        original = getattr(module, name)
        monkeypatch.setattr(module, name, lambda *a, **k: calls.append(name) or original(*a, **k))

    for module, name in (  # commands first, so that it wraps the library's own
        (ksing.commands, "build_quiver"),
        (ksing.commands, "export_quiver"),
        (ksing.commands, "smith_certificate"),
        (ksing.linalg, "smith_certificate"),
        (ksing.ktheory, "family_matrix_closed_form"),
    ):
        recording(module, name)
    assert ksing.smith_normal_form(ksing.IntMatrix([[2, 4], [1, 2]])) == (1, 0)
    ksing.matrix_from_source(ksing.validate_params(4, 4, (1,) * 4), "closed-form-family")
    args = ["--n", "5", "--d", "3", "--weights", "1,2,2"]
    assert ksing.cli.main(["quiver", *args]) == ksing.cli.main(["snf", *args]) == 0
    capsys.readouterr()
    assert calls == [
        "smith_certificate", "family_matrix_closed_form", "build_quiver", "export_quiver",
        "smith_certificate",
    ]


def _library_functions():
    """Each function in ``ksing.__all__`` and each method written in a class
    there (not those ``typing.NamedTuple`` generates), by qualified name."""
    for name in ksing.__all__:
        obj = getattr(ksing, name)
        members = vars(obj).values() if inspect.isclass(obj) else [obj]
        for member in members:
            fn = getattr(member, "__func__", getattr(member, "fget", member))
            if inspect.isfunction(fn) and fn.__module__.startswith("ksing."):
                yield fn.__qualname__, fn


def test_type_hints_of_every_public_function_resolve():
    # path_counts_bruteforce names Quiver, which ksing.verification does not
    # import: loading ksing.quiver with the verification code would cost
    # every verify_paper call about a millisecond of compiling.
    unresolved = {"path_counts_bruteforce"}
    found = set()
    for qualname, fn in _library_functions():
        try:
            typing.get_type_hints(fn)
        except NameError:
            found.add(qualname)
    assert found == unresolved


@pytest.mark.parametrize(
    "read, home, other",
    [
        ("ksing.linalg.pfaffian", "ksing.verification", "ksing.quiver"),
        ("ksing.cli.build_quiver", "ksing.quiver", "ksing.verification"),
        ("ksing.linalg.smith_certificate", "ksing.smith", "ksing.verification"),
    ],
)
def test_each_late_name_loads_its_home_alone(read, home, other):
    # The read runs after the imports, in the same fresh process.
    assert _loaded_by_import(home, f"ksing.cli; {read}") == "True"
    assert _loaded_by_import(other, f"ksing.cli; {read}") == "False"


@pytest.mark.parametrize(
    "module", ["ksing", "ksing.linalg", "ksing.cartan", "ksing.ktheory", "ksing.cli"]
)
def test_an_unknown_name_raises_attribute_error_naming_its_module(module):
    # perfbench's tracer probes with getattr(module, name, None).
    mod = importlib.import_module(module)
    with pytest.raises(AttributeError, match=f"module {module!r} has no attribute 'no_such_name'"):
        mod.no_such_name
    assert not hasattr(mod, "no_such_name")


def test_only_the_package_lists_what_loads_on_first_use():
    # Every other module-level __getattr__ is one statement, a call of
    # ksing._bind, so no list of late names drifts back into the layers.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__" and len(node.body) > 1
    ]
    assert found == []


def test_every_layer_getattr_is_the_same_one_return():
    # ksing.commands binds the quiver and the Smith certificate through the
    # same one-line __getattr__ as the layers.
    found = {
        path.stem: ast.dump(node)
        for path in sorted(SOURCE.glob("*.py"))
        if path.name != "__init__.py"
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.FunctionDef) and node.name == "__getattr__"
    }
    assert {"linalg", "cartan", "ktheory", "cli", "commands"} <= set(found)
    assert len(set(found.values())) == 1


def test_no_test_module_imports_a_private_name_at_module_level():
    # A private helper that goes away would knock the whole module out at
    # collection; tests read one through its module at call time instead,
    # as conftest does with ksing.linalg._divisors_mod.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(Path(__file__).resolve().parent.glob("*.py"))
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ImportFrom) and node.level == 0
        and node.module.partition(".")[0] == "ksing"
        and any(a.name.startswith("_") for a in node.names)
    ]
    assert len(list(Path(__file__).resolve().parent.glob("test_*.py"))) > 5
    assert found == []


def test_readme_names_every_exit_2_class_with_its_home():
    # The list in README's exit-code paragraph, as (class, module) pairs,
    # against every InputError subclass the package defines.
    for info in pkgutil.iter_modules(ksing.__path__):
        importlib.import_module(f"ksing.{info.name}")
    classes, seen = [ksing.InputError], set()
    while classes:
        for sub in classes.pop().__subclasses__():
            if sub.__module__.startswith("ksing.") and sub not in seen:
                seen.add(sub)
                classes.append(sub)
    defined = {(cls.__name__, cls.__module__) for cls in seen}

    text = " ".join((SOURCE.parents[1] / "README.md").read_text().split())
    listed = text.split("the class one of the `InputError` subclasses:", 1)[1]
    listed = listed.split("; or `InputError` itself.", 1)[0]
    named = set()
    for group in listed.split(";"):
        names, home = group.split("(", 1)
        module = re.match(r"\s*`(ksing\.\w+)`", home).group(1)
        named |= {(name, module) for name in re.findall(r"`(\w+)`", names)}
    assert named == defined
