import json
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import padicnorm
from padicnorm import FieldConfig, SplitNorm, building, cli, io, linalg, norms
from padicnorm.cli import main

import oracles

F = Fraction
CFG2 = FieldConfig(2)


@pytest.fixture(scope="module")
def docs(tmp_path_factory):
    root = tmp_path_factory.mktemp("docs")

    def write(name, norm):
        path = root / name
        path.write_text(io.dumps_machine(io.norm_to_doc(norm)), encoding="utf-8")
        return str(path)

    bad = root / "bad.json"
    bad.write_text('{"prime": 2}', encoding="utf-8")
    return {
        "alpha": write(
            "alpha.json", SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(1, 2)))
        ),
        "beta": write("beta.json", SplitNorm(CFG2, 2, oracles.identity(2), (F(0), F(0)))),
        "lat": write(
            "lat.json",
            SplitNorm(CFG2, 2, linalg.transpose([(1, 0), (0, 2)]), (F(0), F(0))),
        ),
        "bad": str(bad),
        "three": write(
            "three.json",
            SplitNorm(FieldConfig(3), 3, oracles.identity(3), (F(0), F(0), F(0))),
        ),
    }


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_formats(capsys, argv, text, machine):
    # text is the default format, so it is checked with and without the flag
    for fmt, want in ((), text), (("--format", "text"), text), (("--format", "machine"), machine):
        code, out, err = run(capsys, *argv, *fmt)
        assert (code, err) == (0, ""), (argv, fmt)
        assert out == want, (argv, fmt)


def test_frozen_lines(docs, capsys):
    # (argv, text stdout, machine stdout) for every line verb and mode
    alpha, beta, lat = docs["alpha"], docs["beta"], docs["lat"]
    at_zero = "0 lhs=1 rhs=1\n-1/2 lhs=1 rhs=1\n"
    true, false = ("true\n", '{"result":true}\n'), ("false\n", '{"result":false}\n')
    expected = [
        (("eval", alpha, "--vector", "1,1"), "1/2\n", '{"value":"1/2"}\n'),
        (("eval", alpha, "--vector", "0,0"), "-inf\n", '{"value":"-inf"}\n'),
        (
            ("graded-dims", alpha),
            "0 2\n-1/2 2\n",
            '{"classes":[["0",2],["-1/2",2]],"total":4}\n',
        ),
        (("graded-dims", alpha, "--delta=-1/2"), "2\n", '{"class":"-1/2","dim":2}\n'),
        (("graded-dims", alpha, "--delta", "1/4"), "0\n", '{"class":"1/4","dim":0}\n'),
        # the level counts mod 1, and is echoed as given
        (("graded-dims", alpha, "--delta", "1/2"), "2\n", '{"class":"1/2","dim":2}\n'),
        (("graded-dims", alpha, "--delta", "1"), "2\n", '{"class":"1","dim":2}\n'),
        (("chi-weights", alpha), "0 1\n1/2 1\n", '{"weights":[["0",1],["1/2",1]]}\n'),
        (
            ("bc-dims", alpha),
            "kernel=2 centralizer=2 total=4\n",
            '{"centralizer":2,"kernel":2,"total":4}\n',
        ),
        (
            ("bc-dims", alpha, "--ram-index", "2"),
            "ram_index=2 classes=[0:2] lattice_norm=true\n",
            '{"classes":[["0",2]],"lattice_norm":true,"ram_index":2}\n',
        ),
        (
            ("bc-dims", alpha, "--ram-index", "unbounded"),
            "ram_index=unbounded classes=[0:2] lattice_norm=true\n",
            '{"classes":[["0",2]],"lattice_norm":true,"ram_index":"unbounded"}\n',
        ),
        (
            ("bc-dims", alpha, "--at", "0"),
            at_zero,
            '{"at":"0","classes":[["0",[1,1]],["-1/2",[1,1]]]}\n',
        ),
        (
            ("bc-dims", alpha, "--at", "5/3"),
            "-1/6 lhs=1 rhs=1\n-2/3 lhs=1 rhs=1\n",
            '{"at":"5/3","classes":[["-1/6",[1,1]],["-2/3",[1,1]]]}\n',
        ),
        # the table depends on the level mod 1 only, and must not build p^100000
        (
            ("bc-dims", alpha, "--at=-100000"),
            at_zero,
            '{"at":"-100000","classes":[["0",[1,1]],["-1/2",[1,1]]]}\n',
        ),
        (("level", alpha, "--matrix", "1,1;0,1"), "-1/2\n", '{"level":"-1/2"}\n'),
        (("level", alpha, "--matrix", "1,1;0,1", "--delta=-1/2"), *true),
        (("level", alpha, "--matrix", "1,1;0,1", "--delta=-1"), *false),
        (
            ("fiber", alpha),
            "levi=[1,1] unipotent=2 total=4\n",
            '{"levi":[1,1],"total":4,"unipotent":2}\n',
        ),
        (
            ("fiber", beta),
            "levi=[2] unipotent=0 total=4\n",
            '{"levi":[2],"total":4,"unipotent":0}\n',
        ),
        (("coords", alpha), "0,1/2\n", '{"coords":["0","1/2"]}\n'),
        (("coords", alpha, "--frame", "1,0;1,1"), "none\n", '{"coords":null}\n'),
        (("cartan", beta, lat), "1,0\n", '{"position":["1","0"]}\n'),
        (("cartan", beta, alpha), "1/2,0\n", '{"position":["1/2","0"]}\n'),
        (("type", alpha), "1,1\n", '{"type":[1,1]}\n'),
        (("type", beta), "2\n", '{"type":[2]}\n'),
        (
            ("translate", "--matrix", "4,0;0,1", "--prime", "2"),
            "2,0\n",
            '{"translation":["2","0"]}\n',
        ),
        (
            ("translate", "--matrix", "1/2,0;0,1", "--prime", "2"),
            "-1,0\n",
            '{"translation":["-1","0"]}\n',
        ),
        (("stab-check", alpha, "--matrix", "1,2;0,1"), *true),
        (("stab-check", alpha, "--matrix", "2,0;0,1"), *false),
        (("equals", alpha, beta), *false),
        (("equals", alpha, alpha), *true),
    ]
    for argv, text, machine in expected:
        assert_formats(capsys, argv, text, machine)


def test_frozen_documents(docs, capsys):
    # (argv, machine stdout); the text form is the same document indented by two
    alpha, beta = docs["alpha"], docs["beta"]
    identity4 = '"basis":[["1","0","0","0"],["0","1","0","0"],["0","0","1","0"],["0","0","0","1"]]'
    expected = [
        (("ball", alpha), '{"dim":2,"matrix":[["1","0"],["0","2"]],"prime":2}\n'),
        (("ball", alpha, "--open"), '{"dim":2,"matrix":[["2","0"],["0","2"]],"prime":2}\n'),
        (
            ("ball", alpha, "--at", "3/2"),
            '{"dim":2,"matrix":[["1/2","0"],["0","1/2"]],"prime":2}\n',
        ),
        (
            ("apartment", "--vector", "0,1/2", "--prime", "2"),
            '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":2,"values":["0","1/2"]}\n',
        ),
        (
            ("dual", alpha),
            '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":2,"values":["0","-1/2"]}\n',
        ),
        (
            ("act", beta, "--matrix", "2,0;0,1"),
            '{"basis":[["2","0"],["0","1"]],"dim":2,"prime":2,"values":["0","0"]}\n',
        ),
        (
            ("restrict", alpha, "--span", "1,0"),
            '{"basis":[["1"]],"dim":1,"prime":2,"values":["0"]}\n',
        ),
        (
            ("quotient", alpha, "--span", "1,0"),
            '{"basis":[["1"]],"dim":1,"prime":2,"values":["1/2"]}\n',
        ),
        (
            ("chain", alpha),
            '{"classes":["0","1/2"],"dim":2,'
            '"lattices":[[["1","0"],["0","2"]],[["1","0"],["0","1"]]],"prime":2}\n',
        ),
        (
            ("tensor", alpha, beta),
            "{" + identity4 + ',"dim":4,"prime":2,"values":["0","0","1/2","1/2"]}\n',
        ),
        (
            ("sum", alpha, beta),
            "{" + identity4 + ',"dim":4,"prime":2,"values":["0","1/2","0","0"]}\n',
        ),
        (
            ("tree", beta),
            '{"neighbors":['
            '{"basis":[["2","0"],["0","1"]],"dim":2,"prime":2,"values":["0","0"]},'
            '{"basis":[["1","0"],["0","2"]],"dim":2,"prime":2,"values":["0","0"]},'
            '{"basis":[["1","1"],["0","2"]],"dim":2,"prime":2,"values":["0","0"]}]}\n',
        ),
    ]
    for argv, machine in expected:
        text = json.dumps(json.loads(machine), sort_keys=True, indent=2) + "\n"
        assert_formats(capsys, argv, text, machine)


def test_zero_dimension_documents(docs, capsys, tmp_path):
    zero = tmp_path / "zero.json"
    zero.write_text(io.dumps_machine(io.norm_to_doc(SplitNorm(CFG2, 0, (), ()))), encoding="utf-8")
    empty = '{"basis":[],"dim":0,"prime":2,"values":[]}\n'
    expected = [
        (("restrict", docs["alpha"], "--span", ""), empty),
        (
            ("quotient", docs["alpha"], "--span", ""),
            '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":2,"values":["0","1/2"]}\n',
        ),
        (
            ("quotient", docs["lat"], "--span", ""),
            '{"basis":[["1","0"],["0","1"]],"dim":2,"prime":2,"values":["0","0"]}\n',
        ),
        (("restrict", str(zero), "--span", ""), empty),
        (("quotient", str(zero), "--span", ""), empty),
    ]
    for argv, want in expected:
        code, out, err = run(capsys, *argv, "--format", "machine")
        assert (code, err) == (0, ""), argv
        assert out == want, argv
    assert run(capsys, "cartan", str(zero), str(zero)) == (0, "\n", "")


def test_tree_output(docs, capsys):
    code, out, _ = run(capsys, "tree", docs["beta"], "--format", "machine")
    assert code == 0
    doc = json.loads(out)
    assert [n["basis"] for n in doc["neighbors"]] == [
        [["2", "0"], ["0", "1"]],
        [["1", "0"], ["0", "2"]],
        [["1", "1"], ["0", "2"]],
    ]


def test_machine_payloads(docs, capsys):
    alpha = docs["alpha"]
    code, out, _ = run(capsys, "eval", alpha, "--vector", "1,1", "--format", "machine")
    assert code == 0 and json.loads(out) == {"value": "1/2"}
    code, out, _ = run(capsys, "fiber", alpha, "--format", "machine")
    assert code == 0 and json.loads(out) == {"levi": [1, 1], "total": 4, "unipotent": 2}
    code, out, _ = run(capsys, "equals", alpha, alpha, "--format", "machine")
    assert code == 0 and json.loads(out) == {"result": True}
    code, out, _ = run(capsys, "coords", alpha, "--format", "machine")
    assert code == 0 and json.loads(out) == {"coords": ["0", "1/2"]}
    code, out, _ = run(
        capsys, "graded-dims", alpha, "--format", "machine"
    )
    assert code == 0 and json.loads(out) == {
        "classes": [["0", 2], ["-1/2", 2]],
        "total": 4,
    }


def test_exit_codes(docs, capsys):
    alpha = docs["alpha"]

    code, out, err = run(capsys, "eval", docs["bad"], "--vector", "1,1")
    assert code == 1 and out == "" and err.startswith("error:")

    code, out, err = run(capsys, "eval", str(docs["alpha"]) + ".missing", "--vector", "1")
    assert code == 1 and err.startswith("error:")

    code, out, err = run(capsys, "eval", alpha, "--vector", "1,1,1")
    assert code == 2 and out == "" and err.startswith("error:")

    code, _, err = run(capsys, "act", alpha, "--matrix", "1,1;1,1")
    assert code == 2 and err.startswith("error:")

    # each flag picks a different table, so the two together are refused
    code, out, err = run(capsys, "bc-dims", alpha, "--at", "0", "--ram-index", "2")
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1

    code, _, err = run(capsys, "tree", alpha)
    assert code == 2 and err.startswith("error:")

    code, _, err = run(capsys, "equals", alpha, docs["three"])
    assert code == 2 and err.startswith("error:")

    # span columns of the wrong length, or more of them than the dimension
    for verb in ("restrict", "quotient"):
        for span, msg in (
            ("1,0,0", "span matrix must have 2 rows, got 3"),
            ("1;0", "span matrix must have 2 rows, got 1"),
            ("1,0;0,1;1,1", "more spanning columns than the dimension allows"),
        ):
            assert run(capsys, verb, alpha, "--span", span) == (2, "", f"error: {msg}\n")

    # invertible but 3x3 on a 2-dim norm: the size is refused before the determinant
    # (2, not a 2-adic unit) could answer false
    for verb in ("stab-check", "level"):
        code, out, err = run(capsys, verb, alpha, "--matrix", "2,0,0;0,1,0;0,0,1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1


THIRDS, SEVENTHS = f"1/{3 ** 8000}", f"1/{7 ** 5000}"  # 3,817- and 4,226-digit denominators


@pytest.mark.parametrize(
    "values, argv",
    [
        # the ball lattice would hold 2^100001, past Python's int-to-str digit limit
        (["0", "200001/2"], ["chain"]),
        # class keys and levels are differences of the values, with 8,043-digit denominators
        ([THIRDS, SEVENTHS], ["graded-dims"]),
        ([THIRDS, SEVENTHS], ["level", "--matrix", "1,2;0,1"]),
        ([THIRDS, "0"], ["bc-dims", "--at", SEVENTHS]),
        ([THIRDS, "0"], ["bc-dims", "--ram-index", str(7 ** 5000)]),
    ],
    ids=["chain", "graded-dims", "level", "bc-dims-at", "bc-dims-ram-index"],
)
def test_output_beyond_digit_limit(capsys, tmp_path, values, argv):
    doc = tmp_path / "huge.json"
    content = {"prime": 2, "dim": 2, "basis": [["1", "0"], ["0", "1"]], "values": values}
    doc.write_text(json.dumps(content), encoding="utf-8")
    code, out, err = run(capsys, argv[0], str(doc), *argv[1:])
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_far_values_within_digit_limit(capsys, tmp_path):
    """Values 0 and 100000 scale a ball by 2^100000, but the ball index and the relative
    position are small numbers: only chain, which prints the balls, is refused."""
    paths = {}
    for name, values in ("far", ["0", "100000"]), ("zero", ["0", "0"]):
        content = {"prime": 2, "dim": 2, "basis": [["1", "0"], ["0", "1"]], "values": values}
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(content), encoding="utf-8")
    far, zero = str(paths["far"]), str(paths["zero"])
    assert run(capsys, "bc-dims", far, "--at", "0") == (0, "0 lhs=2 rhs=2\n", "")
    assert run(capsys, "cartan", far, zero) == (0, "0,-100000\n", "")
    code, out, err = run(capsys, "chain", far)
    assert code == 2 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


@pytest.mark.parametrize(
    "content",
    [
        ('{"prime":2,"dim":1,"basis":[["1"]],"values":["0"],"label":' + "9" * 5000 + "}").encode(),
        b"[" * 200_000 + b"]" * 200_000,
        b"\xff\xfe\xfa",
    ],
    ids=["long-integer", "deep-nesting", "not-utf8"],
)
def test_unreadable_documents(capsys, tmp_path, content):
    doc = tmp_path / "doc.json"
    doc.write_bytes(content)
    code, out, err = run(capsys, "chain", str(doc))
    assert code == 1 and out == ""
    assert err.startswith("error:") and err.count("\n") == 1


def test_usage_errors(docs):
    with pytest.raises(SystemExit) as exc:
        main(["no-such-verb", docs["alpha"]])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["eval", docs["alpha"]])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["bc-dims", docs["alpha"], "--ram-index", "0"])
    assert exc.value.code == 2


def test_document_pipeline(docs, capsys, tmp_path):
    code, out, _ = run(capsys, "dual", docs["alpha"], "--format", "machine")
    assert code == 0
    once = tmp_path / "dual.json"
    once.write_text(out, encoding="utf-8")
    code, out, _ = run(capsys, "dual", str(once), "--format", "machine")
    assert code == 0
    assert out == Path(docs["alpha"]).read_text(encoding="utf-8")


def test_determinism(docs, capsys):
    for argv in (
        ("graded-dims", docs["alpha"]),
        ("chain", docs["alpha"], "--format", "machine"),
        ("tree", docs["beta"], "--format", "machine"),
    ):
        first = run(capsys, *argv)
        second = run(capsys, *argv)
        assert first == second


def run_module(*argv, **env):
    """Run `python -m padicnorm` in a child that imports the same package as this test."""
    package_root = str(Path(padicnorm.__file__).parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    return subprocess.run(
        [sys.executable, "-m", "padicnorm", *argv],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "PYTHONPATH": path, **env},
    )


def test_module_entry_point(docs):
    proc = run_module("eval", docs["alpha"], "--vector", "1,1")
    assert proc.returncode == 0
    assert proc.stdout == "1/2\n"
    assert proc.stderr == ""


def test_utf8_document_in_c_locale(tmp_path):
    # documents are UTF-8 whatever the locale's encoding
    doc = tmp_path / "cafe.json"
    content = '{"basis":[["1"]],"dim":1,"label":"café","prime":2,"values":["0"]}'
    doc.write_text(content, encoding="utf-8")
    proc = run_module("eval", str(doc), "--vector", "1", LC_ALL="C", PYTHONUTF8="0")
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "0\n", "")


def test_reused_parser_is_stateless(docs, capsys):
    # main reuses one parser: a flag, default or error of one call must not reach the next
    assert cli.build_parser() is cli.build_parser()
    alpha, matrix = docs["alpha"], ("--matrix", "1,1;0,1")
    pairs = [
        (("ball", alpha, "--at", "3/2", "--open"), ("ball", alpha, "--at", "3/2")),
        (("bc-dims", alpha, "--ram-index", "2"), ("bc-dims", alpha)),
        (("level", alpha, *matrix, "--delta=-1/2"), ("level", alpha, *matrix)),
        (("fiber", alpha, "--format", "machine"), ("fiber", alpha)),
        (("eval", alpha), ("eval", alpha, "--vector", "1,1")),
    ]
    for first, second in pairs:
        try:
            run(capsys, *first)
        except SystemExit as exc:  # `eval` without --vector is a usage error
            assert exc.code == 2, first
        capsys.readouterr()
        proc = run_module(*second)
        assert run(capsys, *second) == (proc.returncode, proc.stdout, proc.stderr), (first, second)


def test_handlers_resolve_package_functions_per_call(docs, capsys, monkeypatch):
    # a handler that captured a function object would hide a later rebinding for good
    run(capsys, "type", docs["alpha"])
    calls = []

    def counting(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)

        return wrapper

    monkeypatch.setattr(norms, "equals", counting(norms.equals))
    monkeypatch.setattr(building, "cartan_position", counting(building.cartan_position))
    assert run(capsys, "equals", docs["alpha"], docs["beta"]) == (0, "false\n", "")
    assert calls == ["equals"]
    calls.clear()
    assert run(capsys, "cartan", docs["beta"], docs["lat"]) == (0, "1,0\n", "")
    assert calls[0] == "cartan_position"  # its self-checks call equals after it


def test_group_element_verbs_refuse_the_size_first(docs, capsys):
    # singular and 3x3 on a 2-dim norm: every verb taking a group element names the size
    for verb in ("stab-check", "level", "act"):
        code, out, err = run(capsys, verb, docs["alpha"], "--matrix", "1,1,0;1,1,0;0,0,1")
        assert code == 2 and out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        assert "matrix must be 2x2" in err, verb


def test_ragged_matrix_flags(docs, capsys):
    # every matrix flag is only split in the CLI and read by the library, which refuses a
    # ragged matrix with one error line
    alpha = docs["alpha"]
    for argv in (
        ("act", alpha, "--matrix", "1,0;1"),
        ("stab-check", alpha, "--matrix", "1,0;1"),
        ("level", alpha, "--matrix", "1,0;1"),
        ("translate", "--prime", "2", "--matrix", "1,0;1"),
        ("coords", alpha, "--frame", "1,0;1"),
        ("restrict", alpha, "--span", "1,0;1"),
        ("quotient", alpha, "--span", "1,0;1"),
    ):
        assert run(capsys, *argv) == (2, "", "error: ragged matrix\n"), argv


def test_span_crosses_the_boundary_once(docs, capsys, monkeypatch):
    # the span's entries are read by the flag's parser alone: restrict and quotient hand the
    # library its transpose in Fractions, which the library reads without the gate
    reads = []
    gate = linalg.to_fraction

    def counting(x):
        if isinstance(x, str):
            reads.append(x)
        return gate(x)

    monkeypatch.setattr(linalg, "to_fraction", counting)
    for verb, value in ("restrict", "1/2"), ("quotient", "0"):
        machine = f'{{"basis":[["1"]],"dim":1,"prime":2,"values":["{value}"]}}\n'
        argv = (verb, docs["alpha"], "--span", "2,1/3", "--format", "machine")
        reads.clear()
        assert run(capsys, *argv) == (0, machine, "")
        assert reads == ["2", "1/3"]
