import glob
import os
import shutil
import subprocess
import sys
import tarfile

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
