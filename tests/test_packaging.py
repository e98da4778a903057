import ast
import glob
import os
import shutil
import subprocess
import sys
import tarfile

from corpusfilter import errors

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_sdist_holds_every_module_and_the_entry_point(tmp_path):
    # build from a copy, so that no egg-info or dist/ lands in the checkout
    for name in ("pyproject.toml", "README.md"):
        shutil.copy(os.path.join(REPO, name), tmp_path)
    shutil.copytree(os.path.join(REPO, "src"), tmp_path / "src",
                    ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
    build = "import setuptools.build_meta as b; b.build_sdist('dist')"
    subprocess.run([sys.executable, "-c", build], cwd=tmp_path, check=True,
                   capture_output=True, timeout=120)
    (sdist,) = (tmp_path / "dist").glob("*.tar.gz")
    with tarfile.open(sdist) as tar:
        names = tar.getnames()
        entry_points = next(n for n in names if n.endswith(".egg-info/entry_points.txt"))
        entry_text = tar.extractfile(entry_points).read().decode()
    modules = glob.glob(os.path.join(REPO, "src", "corpusfilter", "*.py"))
    assert modules
    for module in modules:
        rel = os.path.relpath(module, REPO)
        assert any(n.endswith("/" + rel) for n in names), rel
    assert "corpusfilter = corpusfilter.cli:main" in entry_text


# calls that open, parse, dump or format a file; only corpus_io makes them
FILE_CALLS = {"open", "io.open", "gzip.open", "json.load", "json.dump", "atomic_write",
              "csv.writer"}
FILE_MODULES = ("io", "gzip", "json", "csv")


def call_name(node: ast.Call) -> str:
    func = node.func
    if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
        return f"{func.value.id}.{func.attr}"
    return func.id if isinstance(func, ast.Name) else ""


def test_only_corpus_io_opens_and_parses_files():
    found = []
    for module in sorted(glob.glob(os.path.join(REPO, "src", "corpusfilter", "*.py"))):
        name = os.path.basename(module)
        if name == "corpus_io.py":
            continue
        with open(module, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            where = f"{name}:{getattr(top, 'name', '<module>')}"
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and call_name(node) in FILE_CALLS:
                    found.append(f"{where}: {call_name(node)}")
                # no way round the names above, as in `from json import load`
                if isinstance(node, ast.ImportFrom) and node.module in FILE_MODULES:
                    found.append(f"{where}: from {node.module} import")
    assert found == ["cli.py:load_config: open"]  # the YAML config


# top-level names that nothing in src/ names, each kept for a reason
UNNAMED_IN_SRC = {
    "load_cluster_model": "reads the cluster_model.json that the clusters command writes",
    "loss_and_gradient": "the gradient oracle of acceptance criterion 01",
}


def traced_names() -> set[str]:
    """The function and class names that perfbench/spans.py's TRACED wraps."""
    with open(os.path.join(REPO, "perfbench", "spans.py"), encoding="utf-8") as fh:
        tree = ast.parse(fh.read())
    (table,) = (node.value for node in tree.body if isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "TRACED" for t in node.targets))
    return {key.value.split(".")[0] for layer in table.values for key in layer.keys}


def test_every_top_level_function_and_class_is_named_in_src():
    defined, named = set(), set()
    for module in glob.glob(os.path.join(REPO, "src", "corpusfilter", "*.py")):
        with open(module, encoding="utf-8") as fh:
            tree = ast.parse(fh.read())
        for top in tree.body:
            own = getattr(top, "name", None)
            if isinstance(top, (ast.FunctionDef, ast.ClassDef)):
                defined.add(own)
            for node in ast.walk(top):
                name = getattr(node, "id", None) or getattr(node, "attr", None)
                if isinstance(node, (ast.Name, ast.Attribute)) and name != own:
                    named.add(name)
    assert sorted(defined - named - traced_names() - UNNAMED_IN_SRC.keys()) == []


def test_every_error_class_is_a_family_or_an_acceptance_subclass():
    """The CLI tells failures apart by exit code alone, so an error class is
    ToolkitError, one of the three families with an exit code of its own, or
    a subclass of a family that the acceptance suite names."""
    with open(os.path.join(REPO, "tests", "test_acceptance.py"), encoding="utf-8") as fh:
        acceptance = {getattr(node, "id", None) for node in ast.walk(ast.parse(fh.read()))}
    families = (errors.ConfigError, errors.DataError, errors.RemoteProviderError)
    codes = [cls.exit_code for cls in (errors.ToolkitError, *families)]
    assert all("exit_code" in vars(cls) for cls in families) and len(set(codes)) == 4
    stray = [name for name, cls in vars(errors).items()
             if isinstance(cls, type) and cls is not errors.ToolkitError and cls not in families
             and not (issubclass(cls, families) and "exit_code" not in vars(cls)
                      and name in acceptance)]
    assert stray == []
