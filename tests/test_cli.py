"""Command line contract: outputs and the exit code table."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import reflectix
from reflectix import cli, safeser
from reflectix.typerep import Int, List, Pair


@pytest.fixture
def list_blob(tmp_path):
    p = tmp_path / "list.bin"
    p.write_bytes(safeser.serialize(List(Int), [1, 2]))
    return str(p)


def _expr_file(tmp_path, text):
    p = tmp_path / "term.txt"
    p.write_text(text)
    return str(p)


def test_inspect_lists_nodes(capsys, list_blob):
    assert cli.main(["inspect", list_blob]) == 0
    assert capsys.readouterr().out == (
        "0: Block tag=0 fields=[1, 2]\n"
        "1: Imm 1\n"
        "2: Block tag=0 fields=[3, 4]\n"
        "3: Imm 2\n"
        "4: Imm 0\n"
        "root: 0\n"
    )


def test_inspect_extcon_and_bytes(capsys, tmp_path):
    from reflectix import prelude as pl

    p = tmp_path / "exn.bin"
    p.write_bytes(safeser.serialize(pl.Exn, pl.failure("hi")))
    assert cli.main(["inspect", str(p)]) == 0
    assert capsys.readouterr().out == (
        "0: ExtCon Failure fields=[1]\n"
        "1: Bytes 6869\n"
        "root: 0\n"
    )


def test_validate_compatible(capsys, list_blob):
    assert cli.main(["validate", "--type", "List(Int)", list_blob]) == 0
    assert capsys.readouterr().out == "compatible\n"


def test_validate_incompatible_is_exit_3(capsys, list_blob):
    assert cli.main(["validate", "--type", "List(String)", list_blob]) == 3
    out = capsys.readouterr().out
    assert out.startswith("incompatible: ")


def test_validate_int_vs_list(capsys, list_blob):
    assert cli.main(["validate", "--type", "Int", list_blob]) == 3


def test_validate_unknown_type_is_exit_4(capsys, list_blob):
    assert cli.main(["validate", "--type", "Bogus", list_blob]) == 4
    assert "error:" in capsys.readouterr().err


def test_validate_arity_error_is_exit_4(capsys, list_blob):
    assert cli.main(["validate", "--type", "List", list_blob]) == 4


def test_validate_too_deep_type_is_one_error_line(capsys, list_blob):
    deep = "List(" * 3000 + "Int" + ")" * 3000
    assert cli.main(["validate", "--type", deep, list_blob]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input nests too deeply to process\n"


def _graph_file(tmp_path, nodes):
    p = tmp_path / "graph.bin"
    p.write_bytes(safeser.encode_graph(safeser.ValueGraph(nodes, 0)))
    return str(p)


def test_validate_refuses_cyclic_graph(capsys, tmp_path):
    f = _graph_file(tmp_path, [safeser.Block(0, (1, 0)), safeser.Imm(5)])
    assert cli.main(["validate", "--type", "List(Int)", f]) == 3
    assert capsys.readouterr().out.startswith("incompatible: ")


def test_validate_refuses_shared_node_at_clashing_types(capsys, tmp_path):
    # The checker's join lets the second, clashing use through;
    # deserialize does not.
    xs = [1, 2]
    p = tmp_path / "shared.bin"
    p.write_bytes(safeser.serialize(Pair(List(Int), List(Int)), (xs, xs)))
    assert cli.main(["validate", "--type", "Pair(List(Int), String)", str(p)]) == 3


def test_validate_refused_representation_is_exit_6(capsys, tmp_path):
    f = _graph_file(tmp_path, [safeser.Imm(-1)])
    assert cli.main(["validate", "--type", "Nat", f]) == 6
    assert "rejected" in capsys.readouterr().err


def test_validate_refuses_undecodable_text(capsys, tmp_path):
    f = _graph_file(tmp_path, [safeser.Bytes(b"\xff")])
    assert cli.main(["validate", "--type", "String", f]) == 3


def test_malformed_bytes_is_exit_2(capsys, tmp_path, list_blob):
    truncated = tmp_path / "cut.bin"
    with open(list_blob, "rb") as f:
        truncated.write_bytes(f.read()[:20])
    assert cli.main(["inspect", str(truncated)]) == 2
    assert "offset" in capsys.readouterr().err


def test_missing_file_is_exit_1(capsys):
    assert cli.main(["inspect", "/nonexistent/path.bin"]) == 1
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [["roundtrip", "--type", "Expr"], ["demo-expr", "--pass", "height"]],
    ids=["roundtrip", "demo-expr"],
)
def test_text_that_is_not_utf8_is_exit_1(capsys, tmp_path, argv):
    p = tmp_path / "bad.txt"
    p.write_bytes(b"\xff\xfe(")
    assert cli.main(argv + [str(p)]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "not UTF-8" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def test_roundtrip_ok(capsys, tmp_path):
    f = _expr_file(tmp_path, "(add (cst 1) (cst 2))")
    assert cli.main(["roundtrip", "--type", "Expr", f]) == 0
    assert capsys.readouterr().out == "roundtrip ok\n"


def test_roundtrip_int(capsys, tmp_path):
    f = _expr_file(tmp_path, "41")
    assert cli.main(["roundtrip", "--type", "Int", f]) == 0


def test_roundtrip_corrupt_is_exit_3(capsys, tmp_path):
    f = _expr_file(tmp_path, "41")
    assert cli.main(["roundtrip", "--type", "Int", "--corrupt", f]) == 3
    assert capsys.readouterr().out == "roundtrip mismatch\n"


def test_roundtrip_corrupt_expr(capsys, tmp_path):
    f = _expr_file(tmp_path, "(add (cst 1) (var x))")
    assert cli.main(["roundtrip", "--type", "Expr", "--corrupt", f]) == 3


def test_roundtrip_nat(capsys, tmp_path):
    f = _expr_file(tmp_path, "5")
    assert cli.main(["roundtrip", "--type", "Nat", f]) == 0


def test_roundtrip_negative_nat_is_exit_6(capsys, tmp_path):
    f = _expr_file(tmp_path, "-3")
    assert cli.main(["roundtrip", "--type", "Nat", f]) == 6
    assert "rejected" in capsys.readouterr().err


def test_roundtrip_bad_literal_is_exit_5(capsys, tmp_path):
    f = _expr_file(tmp_path, "five")
    assert cli.main(["roundtrip", "--type", "Int", f]) == 5


def test_demo_expr_simplify(capsys, tmp_path):
    f = _expr_file(tmp_path, "(neg (neg (var x)))")
    assert cli.main(["demo-expr", "--pass", "simplify", f]) == 0
    assert capsys.readouterr().out == "(var x)\n"


def test_demo_expr_const_fold(capsys, tmp_path):
    f = _expr_file(tmp_path, "(add (cst 1) (cst 2))")
    assert cli.main(["demo-expr", "--pass", "const-fold", f]) == 0
    assert capsys.readouterr().out == "(cst 3)\n"


def test_demo_expr_simplify_more(capsys, tmp_path):
    f = _expr_file(tmp_path, "(sub (cst 1) (cst 2))")
    assert cli.main(["demo-expr", "--pass", "simplify-more", f]) == 0
    assert capsys.readouterr().out == "(add (cst 1) (neg (cst 2)))\n"


def test_demo_expr_abstract(capsys, tmp_path):
    f = _expr_file(tmp_path, "(add (cst 5) (cst 7))")
    assert cli.main(["demo-expr", "--pass", "abstract", f]) == 0
    assert capsys.readouterr().out == "(add (var x0) (var x1))\n"


def test_demo_expr_free_vars(capsys, tmp_path):
    f = _expr_file(tmp_path, "(let x (cst 1) (add (var x) (var z)))")
    assert cli.main(["demo-expr", "--pass", "free-vars", f]) == 0
    assert capsys.readouterr().out == "z\n"


def test_demo_expr_constants(capsys, tmp_path):
    f = _expr_file(tmp_path, "(add (cst 1) (sub (cst 2) (cst 3)))")
    assert cli.main(["demo-expr", "--pass", "constants", f]) == 0
    assert capsys.readouterr().out == "1\n2\n3\n"


def test_demo_expr_height(capsys, tmp_path):
    f = _expr_file(tmp_path, "(add (cst 1) (neg (cst 2)))")
    assert cli.main(["demo-expr", "--pass", "height", f]) == 0
    assert capsys.readouterr().out == "3\n"


def test_demo_expr_parse_error_is_exit_5(capsys, tmp_path):
    f = _expr_file(tmp_path, "(bogus)")
    assert cli.main(["demo-expr", "--pass", "height", f]) == 5
    assert "line 1" in capsys.readouterr().err


@pytest.mark.parametrize("pass_name", ["height", "simplify"])
def test_demo_expr_too_deep_is_one_error_line(capsys, tmp_path, pass_name):
    depth = 2000
    f = _expr_file(tmp_path, "(neg " * depth + "(cst 1)" + ")" * depth)
    assert cli.main(["demo-expr", "--pass", pass_name, f]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: input nests too deeply to process\n"


def test_fuel_env_limits_rewrites(capsys, tmp_path, monkeypatch):
    f = _expr_file(tmp_path, "(sub (cst 1) (sub (cst 2) (cst 3)))")
    monkeypatch.setenv("REFLECTIX_FUEL", "1")
    assert cli.main(["demo-expr", "--pass", "simplify-more", f]) == 1
    assert "exceeded" in capsys.readouterr().err
    monkeypatch.setenv("REFLECTIX_FUEL", "10")
    assert cli.main(["demo-expr", "--pass", "simplify-more", f]) == 0


def test_fuel_env_garbage_is_exit_1(capsys, tmp_path, monkeypatch):
    f = _expr_file(tmp_path, "(cst 1)")
    monkeypatch.setenv("REFLECTIX_FUEL", "lots")
    assert cli.main(["demo-expr", "--pass", "simplify-more", f]) == 1


def test_usage_errors_are_exit_1(capsys, list_blob):
    for argv in (
        [],
        ["frobnicate"],
        ["validate", list_blob],
        ["demo-expr", "--pass", "nonsense", list_blob],
    ):
        with pytest.raises(SystemExit) as e:
            cli.main(argv)
        assert e.value.code == 1, argv


def test_one_parser_serves_every_call_in_a_process(capsys, tmp_path, list_blob):
    cli._parser.cache_clear()
    f = _expr_file(tmp_path, "41")
    # A flag given to one call does not stick to the next.
    assert cli.main(["roundtrip", "--type", "Int", "--corrupt", f]) == 3
    assert cli.main(["roundtrip", "--type", "Int", f]) == 0
    # Nor does a usage error spoil it.
    with pytest.raises(SystemExit) as e:
        cli.main(["validate", list_blob])
    assert e.value.code == 1
    assert cli.main(["validate", "--type", "List(Int)", list_blob]) == 0
    assert capsys.readouterr().out == "roundtrip mismatch\nroundtrip ok\ncompatible\n"
    assert cli._parser.cache_info().misses == 1


def test_pass_choices_are_the_passes(capsys, tmp_path):
    f = _expr_file(tmp_path, "(cst 1)")
    with pytest.raises(SystemExit):
        cli.main(["demo-expr", "--pass", "nonsense", f])
    choices = ", ".join(map(repr, cli.PASSES))
    assert f"invalid choice: 'nonsense' (choose from {choices})" in capsys.readouterr().err
    for name in cli.PASSES:
        assert cli.main(["demo-expr", "--pass", name, f]) == 0, name


def _child_env():
    # The child interpreter imports reflectix from where this one did,
    # whether or not PYTHONPATH was set for the test run.
    src = str(Path(reflectix.__file__).resolve().parent.parent)
    paths = [src, os.environ.get("PYTHONPATH", "")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(p for p in paths if p)}


def test_module_entry_point(tmp_path, list_blob):
    proc = subprocess.run(
        [sys.executable, "-m", "reflectix", "validate", "--type",
         "List(Int)", list_blob],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 0
    assert proc.stdout == "compatible\n"
    proc = subprocess.run(
        [sys.executable, "-m", "reflectix", "validate", "--type",
         "List(String)", list_blob],
        capture_output=True,
        text=True,
        env=_child_env(),
    )
    assert proc.returncode == 3


def test_validate_reports_the_nested_path(capsys, tmp_path):
    f = _graph_file(
        tmp_path,
        [
            safeser.Block(0, (1, 2)),
            safeser.Imm(1),
            safeser.Block(0, (3, 4)),
            safeser.Float(2.0),
            safeser.Imm(0),
        ],
    )
    assert cli.main(["validate", "--type", "List(Int)", f]) == 3
    assert capsys.readouterr().out == (
        "incompatible: at root.1.0: expected Int, found Float\n"
    )
