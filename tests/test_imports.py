"""What a call loads: the lazy package namespace and the import budget
of the command line."""

import json
import pathlib
import subprocess
import sys

import pytest

import gbott

SRC = pathlib.Path(gbott.__file__).resolve().parents[1]
DATA = pathlib.Path(__file__).parent / "data"

# One fresh interpreter, in phases: a bare `import gbott`, then
# `gbott --version`, then an iso search.  After each phase it records
# the modules that phase newly loaded; modules that `site` preloads
# are not new to any of them.
CHILD = """
import json, sys
seen = set(sys.modules)
phases = {}

def phase(name):
    global seen
    now = set(sys.modules)
    phases[name] = sorted(now - seen)
    seen = now

import gbott
phase("import")
from gbott import cli
try:
    cli.main(["--version"])
except SystemExit as exc:
    phases["version_exit"] = exc.code
phase("version")
phases["iso_exit"] = cli.main(
    ["iso", sys.argv[1], sys.argv[2], "--coeff", "q", "--bound", "2"]
)
phase("iso")
from gbott import isosearch
phases["isosearch_is_module"] = isosearch is sys.modules["gbott.isosearch"]
print(json.dumps(phases))
"""


@pytest.fixture(scope="module")
def child():
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, str(DATA / "qtwin_a.tower"),
         str(DATA / "qtwin_b.tower")],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    return printed, json.loads(last)


def test_bare_import_loads_no_submodule(child):
    _, phases = child
    assert [m for m in phases["import"] if m.startswith("gbott")] == ["gbott"]


def test_version_loads_no_computation_module(child):
    printed, phases = child
    assert printed[0] == f"gbott {gbott.__version__}"
    assert phases["version_exit"] == 0
    loaded = {m for m in phases["version"] if m.startswith("gbott.")}
    assert loaded <= {"gbott.cli", "gbott.errors", "gbott._base"}


def test_iso_loads_neither_census_nor_dataclasses(child):
    printed, phases = child
    assert phases["iso_exit"] == 0
    assert "witness (column j is the image of source generator j):" in printed
    loaded = set(phases["import"] + phases["version"] + phases["iso"])
    unwanted = {"gbott.census", "gbott.triviality", "dataclasses", "inspect", "typing"}
    assert not unwanted & loaded


def test_from_gbott_import_submodule(child):
    _, phases = child
    assert phases["isosearch_is_module"] is True


# -- the lazy namespace ---------------------------------------------------------

def test_public_names_are_their_home_modules_objects():
    for name in gbott.__all__:
        value = getattr(gbott, name)
        if name == "kernel_backend":
            from gbott import backend

            assert value == backend.KERNEL_NAME
            continue
        home = sys.modules[value.__module__]
        assert home.__name__.startswith("gbott.")
        assert getattr(home, name) is value, name


def test_dir_lists_every_public_name():
    assert len(set(gbott.__all__)) == len(gbott.__all__)
    assert set(gbott.__all__) <= set(dir(gbott))


def test_star_import():
    namespace = {}
    exec("from gbott import *", namespace)
    assert set(gbott.__all__) <= set(namespace)
    assert namespace["TowerSpec"] is gbott.TowerSpec


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        gbott.no_such_name
    assert not hasattr(gbott, "no_such_name")
