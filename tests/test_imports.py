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

# A fresh interpreter runs a script in phases; after each phase it
# records the modules that phase newly loaded.  Modules that `site`
# preloads are not new to any of them.
PHASES = """
import json, sys
seen = set(sys.modules)
phases = {}

def phase(name):
    global seen
    now = set(sys.modules)
    phases[name] = sorted(now - seen)
    seen = now

"""

# The command line: a bare `import gbott`, then `gbott --version`, then
# an iso search that exhausts its bound, then one that finds a witness.
CLI = """
import gbott
phase("import")
from gbott import cli
try:
    cli.main(["--version"])
except SystemExit as exc:
    phases["version_exit"] = exc.code
phase("version")
phases["exhaust_exit"] = cli.main(
    ["iso", sys.argv[1], sys.argv[2], "--coeff", "z", "--bound", "3"]
)
phase("exhaust")
phases["iso_exit"] = cli.main(
    ["iso", sys.argv[1], sys.argv[2], "--coeff", "q", "--bound", "2"]
)
phase("iso")
from gbott import isosearch
phases["isosearch_is_module"] = isosearch is sys.modules["gbott.isosearch"]
print(json.dumps(phases))
"""

# The library, as the census and the oracle sweep use it: a census
# config and its towers, their flags by the classifier and by the three
# single-flag deciders, then the brute-force oracle on each.
LIBRARY = """
import gbott
phase("import")
config = gbott.EnumerationConfig(2, (1, 2), 1)
towers = list(gbott.enumerate_towers(config.height, config.dims, config.coeff_bound))
phase("census")
from gbott.census import classify
flags = [f for _, f in classify(towers)]
deciders = (gbott.is_q_trivial, gbott.is_z_trivial, gbott.is_total_chern_trivial)
phases["flags_agree"] = flags == [tuple(d(t) for d in deciders) for t in towers]
phase("decide")
answers = [gbott.z_trivial_oracle(t, bound=2) for t in towers]
phase("oracle")
print(json.dumps(phases))
"""

# The checks that need no polynomial: a map's homomorphism and
# isomorphism tests, then `gbott report --json` on a tower whose last
# stage, above a failing one, is decided on a ring.
CHECKS = """
import gbott
from gbott import cli
src = gbott.CohomRing(gbott.load_tower(sys.argv[1]))
tgt = gbott.CohomRing(gbott.load_tower(sys.argv[2]))
phase("rings")
M = gbott.Degree2Map(((2, 0), (0, 1)))
phases["answers"] = [
    gbott.check_hom(M, src, tgt, over_integers=True),
    gbott.is_iso(M, src, tgt),
    gbott.is_iso(M, src, tgt, over_integers=True),
]
phase("is_iso")
phases["report_exit"] = cli.main(["report", "--json", sys.argv[3]])
phase("report")
print(json.dumps(phases))
"""


# `gbott enumerate` after a parse of the same kind by argparse alone, so
# that the modules argparse loads to word its messages are not new
ENUMERATE = """
import argparse, contextlib, io
parser = argparse.ArgumentParser()
parser.add_subparsers().add_parser("run").add_argument("--n", type=int)
parser.parse_args(["run", "--n", "1"])
phase("argparse")
from gbott import cli
with contextlib.redirect_stdout(io.StringIO()) as out:
    phases["enumerate_exit"] = cli.main(
        ["enumerate", "--height", "2", "--dims", "1,2", "--bound", "1", "--filter", "q"]
    )
phases["summary"] = out.getvalue().splitlines()[-4]
phase("enumerate")
print(json.dumps(phases))
"""

# the modules `gbott enumerate` loads; one more would add to the start-up
# of every census
ENUMERATE_MODULES = {
    "__future__", "gbott", "gbott._base", "gbott.census", "gbott.cli",
    "gbott.errors", "gbott.tower", "gbott.triviality",
}


def _run(script: str, *args: str):
    proc = subprocess.run(
        [sys.executable, "-c", PHASES + script, *args],
        cwd=SRC,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    *printed, last = proc.stdout.splitlines()
    return printed, json.loads(last)


@pytest.fixture(scope="module")
def child():
    return _run(CLI, str(DATA / "qtwin_a.tower"), str(DATA / "qtwin_b.tower"))


@pytest.fixture(scope="module")
def library():
    return _run(LIBRARY)[1]


@pytest.fixture(scope="module")
def checks(tmp_path_factory):
    from gbott import StageSpec, TowerSpec, save_tower

    above_failure = tmp_path_factory.mktemp("towers") / "above_failure.tower"
    save_tower(
        TowerSpec((StageSpec(2), StageSpec(1, ((1,),)), StageSpec(1, ((0, 1),)))),
        above_failure,
    )
    return _run(
        CHECKS,
        str(DATA / "qtwin_a.tower"),
        str(DATA / "qtwin_b.tower"),
        str(above_failure),
    )


def test_bare_import_loads_no_submodule(child):
    _, phases = child
    assert [m for m in phases["import"] if m.startswith("gbott")] == ["gbott"]


def test_version_loads_no_computation_module(child):
    printed, phases = child
    assert printed[0] == f"gbott {gbott.__version__}"
    assert phases["version_exit"] == 0
    loaded = {m for m in phases["version"] if m.startswith("gbott.")}
    assert loaded <= {"gbott.cli", "gbott.errors", "gbott._base"}


def test_exhaustive_iso_loads_only_the_search(child):
    """A search that finds nothing prints no polynomial, so it loads
    neither the polynomial layer nor `fractions`."""
    printed, phases = child
    assert phases["exhaust_exit"] == 1
    assert printed[1] == "none within bound 3"
    loaded = set(phases["exhaust"])
    assert {m for m in loaded if m.startswith("gbott")} == {
        "gbott.tower", "gbott.cohomology", "gbott.isosearch"
    }
    unwanted = {
        "gbott.poly", "gbott._kernel_py", "gbott.census", "gbott.triviality",
        "fractions", "decimal",
    }
    assert not unwanted & loaded


def test_iso_loads_neither_census_nor_dataclasses(child):
    printed, phases = child
    assert phases["iso_exit"] == 0
    assert "witness (column j is the image of source generator j):" in printed
    # the witness's residues are printed as polynomials
    assert "gbott.poly" in phases["iso"]
    loaded = set(phases["import"] + phases["version"] + phases["exhaust"] + phases["iso"])
    unwanted = {"gbott.census", "gbott.triviality", "dataclasses", "inspect", "typing"}
    assert not unwanted & loaded


def test_census_set_up_loads_no_decider(library):
    loaded = {m for m in library["census"] if m.startswith("gbott")}
    assert loaded == {"gbott.census", "gbott.tower", "gbott._base", "gbott.errors"}


def test_deciders_load_neither_rings_nor_polynomials(library):
    """The classifier and the single-flag deciders decide every stage in
    closed form, so they load no ring and no polynomial code."""
    assert library["flags_agree"] is True
    loaded = set(library["census"] + library["decide"])
    assert "gbott.triviality" in loaded
    assert not {"gbott.cohomology", "gbott.poly", "fractions"} & loaded


def test_enumerate_loads_nothing_new():
    """`gbott enumerate` loads no module beyond the ones it has loaded
    so far, so that its start-up does not grow unseen."""
    _, phases = _run(ENUMERATE)
    assert phases["enumerate_exit"] == 0
    assert phases["summary"] == "# towers: 24 emitted: 14"
    assert set(phases["enumerate"]) <= ENUMERATE_MODULES


def test_oracle_loads_no_polynomials(library):
    loaded = set(library["census"] + library["oracle"])
    assert not {"gbott.poly", "gbott._kernel_py", "fractions"} & loaded
    assert "gbott.isosearch" in loaded


def test_is_iso_loads_no_polynomials(checks):
    """`check_hom` and `is_iso` decide on the relation images as vectors,
    so they load no polynomial code."""
    _, phases = checks
    assert phases["answers"] == [True, True, False]
    loaded = set(phases["is_iso"])
    assert "gbott.isosearch" in loaded
    assert not {"gbott.poly", "gbott._kernel_py", "fractions", "decimal"} & loaded


def test_json_report_loads_no_polynomials(checks):
    """`gbott report --json` prints flags, candidates and the block
    matrix, so it loads neither the polynomial layer nor `fractions`."""
    printed, phases = checks
    assert phases["report_exit"] == 0
    assert json.loads("\n".join(printed))["stages"][1]["violated_k"] == 2
    loaded = set(phases["rings"] + phases["is_iso"] + phases["report"])
    assert "gbott.triviality" in loaded
    assert not {"gbott.poly", "gbott._kernel_py", "fractions"} & loaded


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
