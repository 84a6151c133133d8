"""Command-line interface: outputs, exit codes, determinism."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import gbott
from gbott.cli import main

from conftest import certify


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def path(data_dir, name):
    return str(data_dir / name)


# -- ring -----------------------------------------------------------------------

def test_ring_prints_presentations(capsys, data_dir):
    code, out, _ = run(capsys, "ring", path(data_dir, "qtwin_a.tower"), "--names", "x,y")
    assert code == 0
    relations = [l.strip() for l in out.splitlines() if l.startswith("  ")]
    assert relations == ["x^3", "y^4 + x*y^3"]
    assert "poincare ranks: 1 2 3 3 2 1" in out

    code, out, _ = run(capsys, "ring", path(data_dir, "qtwin_b.tower"), "--names", "X,Y")
    assert code == 0
    relations = [l.strip() for l in out.splitlines() if l.startswith("  ")]
    assert relations == ["X^3", "Y^4 + 2*X*Y^3"]


def test_names_must_match_height(capsys, data_dir):
    code, _, err = run(capsys, "ring", path(data_dir, "qtwin_a.tower"), "--names", "x")
    assert code == 2
    assert "names" in err


@pytest.mark.parametrize(
    "names, entry",
    [("a,a", "'a'"), ("a,2b", "'2b'"), ("a,b c", "'b c'"), ("x^2,y", "'x^2'"),
     ("a,b-c", "'b-c'"), ("a,,b", "''"), ("a,b,", "''")],
)
def test_names_must_read_back(capsys, data_dir, names, entry):
    """Each --names entry must be one generator name, and no two alike,
    so that the printed polynomials read back; the error names it.  An
    empty entry is no name, not one to skip.  The JSON report prints no
    polynomial but checks the names all the same."""
    tower = path(data_dir, "hirzebruch_3.tower")
    for command in (["report"], ["report", "--json"], ["ring"], ["chern"]):
        code, out, err = run(capsys, *command, tower, "--names", names)
        assert (code, out) == (2, "")
        assert entry in err and "--names" in err


# -- chern ----------------------------------------------------------------------

def test_chern_output(capsys, data_dir):
    code, out, _ = run(capsys, "chern", path(data_dir, "qtwin_a.tower"), "--names", "x,y")
    assert code == 0
    assert "stage 1: c_1 = 0; c_2 = 0" in out
    assert "stage 2: c_1 = x; c_2 = 0; c_3 = 0" in out


# -- report ---------------------------------------------------------------------

def test_report_flags_and_diagnostics(capsys, data_dir):
    code, out, _ = run(capsys, "report", path(data_dir, "qtwin_a.tower"), "--names", "x,y")
    assert code == 0
    assert "q_trivial: no" in out
    assert "stage 2: Chern identity fails at k=2" in out
    assert "x^3" in out and "y^4 + x*y^3" in out


def test_report_json(capsys, data_dir):
    code, out, _ = run(capsys, "report", "--json", path(data_dir, "hirzebruch_3.tower"))
    assert code == 0
    payload = json.loads(out)
    assert payload["q_trivial"] is True
    assert payload["z_trivial"] is False
    assert payload["stages"][1]["candidate"] == [3, 2]
    assert payload["stages"][1]["scale"] == 2
    assert payload["decomposition"]["bott_height"] == 2


def test_report_json_candidates_certify_the_flags(capsys, data_dir):
    """The stages' candidates, as columns, map the product ring onto the
    tower's: over Q, and not over Z since the scale of stage 2 is 2."""
    tower_file = path(data_dir, "hirzebruch_3.tower")
    code, out, _ = run(capsys, "report", "--json", tower_file)
    assert code == 0
    payload = json.loads(out)
    candidates = [stage["candidate"] for stage in payload["stages"]]
    assert [[c[r] for c in candidates] for r in range(2)] == [[1, 3], [0, 2]]
    t = gbott.load_tower(tower_file)
    assert certify(t, candidates) == (True, payload["z_trivial"]) == (True, False)


def test_report_product_all_trivial(capsys, data_dir):
    code, out, _ = run(capsys, "report", path(data_dir, "product_2_3.tower"))
    assert code == 0
    assert "q_trivial: yes" in out
    assert "z_trivial: yes" in out
    assert "total_chern_trivial: yes" in out
    assert "decomposition" in out


def test_malformed_file_exits_2_with_line(capsys, data_dir):
    code, _, err = run(capsys, "report", path(data_dir, "short_rows.tower"))
    assert code == 2
    assert "line 2" in err


def test_nonpositive_fiber_dimension_exits_2_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.tower"
    bad.write_text("stage n=1\nstage n=0\n")
    code, out, err = run(capsys, "report", str(bad))
    assert code == 2
    assert out == ""
    assert "line 2" in err and "fiber dimension must be >= 1" in err


def test_missing_file_exits_2(capsys):
    code, _, err = run(capsys, "report", "/no/such/file.tower")
    assert code == 2
    assert "error" in err


def test_non_utf8_file_exits_2_with_line(capsys, tmp_path, data_dir):
    bad = tmp_path / "latin1.tower"
    bad.write_bytes(b"stage n=2\nstage n=3\n0\n# caf\xe9\n0\n2\n")
    code, out, err = run(
        capsys, "iso", str(bad), path(data_dir, "qtwin_a.tower"),
        "--coeff", "q", "--bound", "1",
    )
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: {bad}: line 4: ")
    assert "0xe9" in err


def test_leading_byte_order_mark_is_ignored(capsys, tmp_path, data_dir):
    plain = (data_dir / "qtwin_a.tower").read_bytes()
    marked = tmp_path / "bom.tower"
    marked.write_bytes(b"\xef\xbb\xbf" + plain)
    code, out, err = run(capsys, "ring", str(marked))
    assert (code, err) == (0, "")
    assert out == run(capsys, "ring", path(data_dir, "qtwin_a.tower"))[1]


# -- iso ------------------------------------------------------------------------

def test_iso_q_witness(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "iso",
        path(data_dir, "qtwin_a.tower"),
        path(data_dir, "qtwin_b.tower"),
        "--coeff", "q", "--bound", "2", "--sequential",
    )
    assert code == 0
    assert "witness" in out
    assert "residue of relation 1: 0" in out
    assert "residue of relation 2: 0" in out


def test_iso_z_none(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "iso",
        path(data_dir, "qtwin_a.tower"),
        path(data_dir, "qtwin_b.tower"),
        "--coeff", "z", "--bound", "10", "--sequential",
    )
    assert code == 1
    assert out.strip() == "none within bound 10"


def test_iso_self_identity(capsys, data_dir):
    p = path(data_dir, "qtwin_a.tower")
    code, out, _ = run(capsys, "iso", p, p, "--coeff", "z", "--bound", "1", "--sequential")
    assert code == 0
    lines = out.splitlines()
    assert lines[1:3] == ["1 0", "0 1"]


def test_iso_sequential_reruns_are_identical(capsys, data_dir):
    args = (
        "iso",
        path(data_dir, "qtwin_a.tower"),
        path(data_dir, "qtwin_b.tower"),
        "--coeff", "q", "--bound", "2", "--sequential",
    )
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_iso_default_parallel_path(capsys, data_dir):
    code, out, _ = run(
        capsys,
        "iso",
        path(data_dir, "qtwin_a.tower"),
        path(data_dir, "qtwin_b.tower"),
        "--coeff", "q", "--bound", "2",
    )
    assert code == 0
    assert "witness" in out


def test_iso_bound_below_one_exits_2(capsys, data_dir):
    p = path(data_dir, "qtwin_a.tower")
    code, out, err = run(capsys, "iso", p, p, "--coeff", "q", "--bound", "0")
    assert code == 2
    assert out == ""
    assert "--bound must be >= 1, got 0" in err
    code, _, err = run(capsys, "iso", p, p, "--coeff", "q", "--workers", "0")
    assert code == 2
    assert "--workers must be >= 1, got 0" in err


def test_iso_sequential_excludes_workers(capsys, data_dir):
    """--workers K would be ignored under --sequential, so the two
    together are refused."""
    p = path(data_dir, "qtwin_a.tower")
    with pytest.raises(SystemExit) as exc:
        main(["iso", p, p, "--coeff", "q", "--sequential", "--workers", "2"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--workers" in captured.err and "--sequential" in captured.err


def test_iso_parse_error_exits_2(capsys, data_dir):
    code, _, err = run(
        capsys,
        "iso",
        path(data_dir, "short_rows.tower"),
        path(data_dir, "qtwin_b.tower"),
        "--coeff", "q", "--bound", "2",
    )
    assert code == 2


# -- decompose --------------------------------------------------------------------

def test_decompose_line_tower(capsys, data_dir):
    code, out, _ = run(capsys, "decompose", path(data_dir, "hirzebruch_3.tower"))
    assert code == 0
    assert "permutation: 1 2" in out
    assert "bott height: 2" in out


def test_decompose_negative_for_nontrivial(capsys, data_dir):
    code, out, _ = run(capsys, "decompose", path(data_dir, "qtwin_a.tower"))
    assert code == 1
    assert "not Q-trivial" in out


# -- enumerate ---------------------------------------------------------------------

def test_enumerate_line_census(capsys):
    code, out, _ = run(
        capsys, "enumerate", "--height", "2", "--dims", "1", "--bound", "1"
    )
    assert code == 0
    records = [l for l in out.splitlines() if not l.startswith("#")]
    assert records == [
        "1 0/-1 1  q=1 z=0 chern=0",
        "1 0/0 1  q=1 z=1 chern=1",
        "1 0/1 1  q=1 z=0 chern=0",
    ]
    assert "# towers: 3 emitted: 3" in out


def test_enumerate_filters(capsys):
    code, out, _ = run(
        capsys,
        "enumerate", "--height", "2", "--dims", "1", "--bound", "1",
        "--filter", "z",
    )
    assert code == 0
    records = [l for l in out.splitlines() if not l.startswith("#")]
    assert records == ["1 0/0 1  q=1 z=1 chern=1"]
    assert "# towers: 3 emitted: 1" in out


def test_enumerate_unknown_filter_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["enumerate", "--height", "2", "--dims", "1", "--bound", "1",
              "--filter", "bogus"])
    assert exc.value.code == 2
    assert "invalid choice: 'bogus'" in capsys.readouterr().err


def test_enumerate_deterministic(capsys):
    args = ("enumerate", "--height", "2", "--dims", "1,2", "--bound", "1")
    _, out1, _ = run(capsys, *args)
    _, out2, _ = run(capsys, *args)
    assert out1 == out2


def test_enumerate_bad_config(capsys):
    code, _, err = run(
        capsys, "enumerate", "--height", "0", "--dims", "1", "--bound", "1"
    )
    assert code == 2


def test_enumerate_non_integer_dims_exits_2(capsys):
    code, out, err = run(
        capsys, "enumerate", "--height", "2", "--dims", "1,x", "--bound", "1"
    )
    assert code == 2
    assert out == ""
    assert "--dims entry 'x' is not an integer" in err


def test_enumerate_count_matches_formula(capsys):
    from gbott import expected_count

    code, out, _ = run(
        capsys, "enumerate", "--height", "2", "--dims", "1,2", "--bound", "1"
    )
    assert code == 0
    records = [l for l in out.splitlines() if not l.startswith("#")]
    assert len(records) == expected_count(2, (1, 2), 1)


def test_enumerate_into_a_closed_pipe_exits_141():
    """As in `gbott enumerate ... | head -2`: when the reader closes the
    pipe, the census stops with exit code 141 (128 + SIGPIPE) and no
    traceback."""
    src = str(pathlib.Path(gbott.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    argv = ["enumerate", "--height", "3", "--dims", "1,2", "--bound", "2"]
    proc = subprocess.Popen(
        [sys.executable, "-m", "gbott.cli", *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=env,
    )
    try:
        lines = [proc.stdout.readline() for _ in range(2)]
        proc.stdout.close()
        _, err = proc.communicate(timeout=60)
    finally:
        proc.kill()
        proc.wait()
    assert all(line.endswith(b"\n") and b"  q=" in line for line in lines)
    assert b"Traceback" not in err and b"Error" not in err
    assert proc.returncode == 141
