"""Seeded fuzz of the CLI with malformed and extreme documents and flags.

Every case runs `cli.main` in-process under a time limit.  It must exit
0, 1 or 2 (argparse's SystemExit(2) counts as 2), never raise, and
leave stderr empty on exit 0, and otherwise stdout empty and stderr
holding exactly one `error:` line.
"""

import argparse
import contextlib
import io as stringio
import json
import os
import random
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from padicnorm import cli, io, linalg
from padicnorm.cli import _frac, main
from padicnorm.errors import PreconditionError
from padicnorm.linalg import digit_limit
from padicnorm.valuation import PRIME_LIMIT

import fuzz

CASE_SECONDS = 2
BIG_PRIME = 1000000000000000003
THIRDS, SEVENTHS = f"1/{3 ** 8000}", f"1/{7 ** 5000}"  # 3,817- and 4,226-digit denominators
IDENTITY2 = [["1", "0"], ["0", "1"]]

pytestmark = fuzz.needs_alarm


def run_case(argv, seconds):
    """(exit code, stdout, stderr) of one in-process run, failing past the time limit."""
    out, err = stringio.StringIO(), stringio.StringIO()
    try:
        with fuzz.time_limit(seconds, f"still running after {seconds} s: {argv!r:.300}"):
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except SystemExit as exc:
                    code = exc.code
    except Exception as exc:
        pytest.fail(f"{type(exc).__name__} escaped main: {argv!r:.300}")
    return code, out.getvalue(), err.getvalue()


def check(argv, codes=(0, 1, 2), seconds=CASE_SECONDS):
    code, out, err = run_case(argv, seconds)
    shown = f"{argv!r:.300} -> {code}: {err!r:.300}"
    assert code in codes, shown
    assert "Traceback" not in out + err, shown
    if code == 0:
        assert err == "", shown
    else:
        assert out == "", shown
        assert sum("error:" in line for line in err.splitlines()) == 1, shown
        assert err.endswith("\n"), shown


def write(tmp_path, name, content):
    path = tmp_path / name
    if isinstance(content, bytes):
        path.write_bytes(content)
    else:
        text = content if isinstance(content, str) else json.dumps(content, ensure_ascii=False)
        path.write_text(text, encoding="utf-8")
    return str(path)


def norm_doc(values, prime=2, basis=IDENTITY2, **extra):
    return {"basis": basis, "dim": len(values), "prime": prime, "values": values, **extra}


def test_extreme_argvs_refused(tmp_path):
    # unprintable results and unbounded work alike must be refused at once
    d = write(tmp_path, "d.json", norm_doc([THIRDS, SEVENTHS]))
    d1 = write(tmp_path, "d1.json", norm_doc([THIRDS, "0"]))
    alpha = write(tmp_path, "alpha.json", norm_doc(["0", "1/2"]))
    big = write(tmp_path, "big.json", norm_doc(["0", "0"], prime=BIG_PRIME))
    mid = write(tmp_path, "mid.json", norm_doc(["0", "0"], prime=10007))
    for argv in (
        ["graded-dims", d],
        ["level", d, "--matrix", "1,2;0,1"],
        ["bc-dims", d1, "--at", SEVENTHS],
        ["bc-dims", d1, "--ram-index", str(7 ** 5000)],
        ["eval", alpha, "--vector", "1e1000000,0"],
        ["eval", alpha, "--vector", "1e100000,0"],
        ["bc-dims", alpha, "--at", "1e10000000"],
        ["ball", alpha, "--at=-10000000000"],
        ["ball", alpha, "--at=-30000000"],
        ["ball", alpha, "--at", "1e4300"],
        ["chain", write(tmp_path, "far.json", norm_doc(["0", "9" * 4300]))],
        ["tree", big],
        ["tree", mid],
        # argparse reads a value written "--" as [], which no flag type and no document gives
        ["ball", alpha, "--at=--"],
        ["graded-dims", alpha, "--delta=--"],
        ["level", alpha, "--matrix", "1,0;0,1", "--delta=--"],
        ["tensor", alpha, "--", "--"],
        ["restrict", alpha, "--span=--"],
        ["eval", alpha, "--vector", "1,1", "--format=--"],
        ["apartment", "--vector=--", "--prime", "2"],
    ):
        check(argv, codes=(2,), seconds=1)
    # ordinary rationals in flags keep working, exponents included
    for at in ("0.5", "2/4", "1e-3", "1E2"):
        check(["ball", alpha, "--at", at], codes=(0,))


def test_refusals_with_the_digit_limit_switched_off(tmp_path):
    # with no int-to-str limit the refusals fall back to the default limit, and only
    # printing itself is unbounded
    alpha = write(tmp_path, "alpha.json", norm_doc(["0", "1/2"]))
    previous = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        assert digit_limit() == sys.int_info.default_max_str_digits
        check(["ball", alpha, "--at=-10000000000"], codes=(2,), seconds=1)
        check(["eval", alpha, "--vector", "1e5000,1"], codes=(2,), seconds=1)
        assert io.rational_str(10**5000) == "1" + "0" * 5000
    finally:
        sys.set_int_max_str_digits(previous)


def test_large_documents_load_without_inverting(tmp_path):
    # a 16-dim basis of 1,000-digit entries is proved invertible modulo a prime at load, and
    # verbs that read only the values never invert it
    rng = random.Random(1000)
    basis = [[str(rng.choice((-1, 1)) * rng.randrange(10 ** 999, 10 ** 1000)) for _ in range(16)]
             for _ in range(16)]
    big = write(tmp_path, "big.json", norm_doc(["0", "1/2", "-1", "2/3"] * 4, 3, basis))
    for verb in ("type", "fiber", "chi-weights", "graded-dims", "bc-dims"):
        check([verb, big], codes=(0,))
    assert run_case(["type", big], CASE_SECONDS) == (0, "8,4,4\n", "")


def test_plain_flags_read_as_fraction_reads_them():
    # num and num/den are read as integers by the library's gate, linalg.to_fraction, which
    # the CLI calls: every form gives Fraction's value or its refusal
    for s in ("0", "-0", "007", "-3", "3/06", "-2/4", "1/0", "1/00", "0/0", "9" * 4300,
              "9" * 4301, "1/" + "9" * 4301, "+1", " 1", "1_0", "0.5", "1e2", "1/-2", "x"):
        try:
            want = Fraction(s)
        except (ValueError, ZeroDivisionError) as exc:
            message = re.escape(f"not a rational: {s!r}")
            with pytest.raises(argparse.ArgumentTypeError, match=message):
                _frac(s)
            with pytest.raises(type(exc)):
                linalg.to_fraction(s)
        else:
            assert _frac(s) == linalg.to_fraction(s) == want
    # the exponents of RATIONALS, where the gate differs from Fraction on purpose: one past
    # the digit limit is refused before Fraction would expand it
    read = ["1e-3", "1E2", "1e4300", "-1e4300", "1e-4300"]
    refused = ["1e4301", "1e1000000", "1e-1000000", "1e10000000", "1e" + "0" * 5000 + "1"]
    assert sorted(read + refused) == sorted(s for s in RATIONALS if re.search("[eE][-+]?[0-9]", s))
    for s in read:
        assert _frac(s) == linalg.to_fraction(s) == Fraction(s)
    for s in refused:
        message = f"^{re.escape(f'exponent beyond {digit_limit()} in {s!r}')}$"
        with pytest.raises(PreconditionError, match=message):
            linalg.to_fraction(s)
        with pytest.raises(argparse.ArgumentTypeError, match=message):
            _frac(s)


def test_no_exponent_hangs_the_gate():
    # 10 ** 100000000 is one C call that no signal handler interrupts, so the string runs in
    # a child process, killed at the time limit if the gate expands it
    package_root = str(Path(io.__file__).parents[1])
    path = os.pathsep.join(filter(None, (package_root, os.environ.get("PYTHONPATH"))))
    code = (
        "from padicnorm import linalg\n"
        "from padicnorm.errors import PreconditionError\n"
        "try:\n"
        "    linalg.to_fraction('1e100000000')\n"
        "except PreconditionError as exc:\n"
        "    print(exc)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        encoding="utf-8",
        env={**os.environ, "PYTHONPATH": path},
        timeout=CASE_SECONDS,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (
        0, "exponent beyond 4300 in '1e100000000'\n", ""
    )


# flag entries: ordinary, non-canonical, exponents on both sides of the digit limit,
# huge numerators and denominators, far levels, and junk
RATIONALS = [
    "0", "1", "-1", "1/2", "-3/4", "7", "0.5", "2/4", "1e-3", "1E2", "-0", "+1", " 1 ",
    "1e4300", "-1e4300", "1e-4300", "1e4301", "1e1000000", "1e-1000000", "1e10000000",
    "1e" + "0" * 5000 + "1", "9" * 4300, "9" * 5000, "1/" + "7" * 4000, SEVENTHS, THIRDS,
    "10000000000", "-10000000000", "-30000000", "1/0", "abc", "", "nan", "inf", "1_0", "0x10",
    "--",
]
# document entries: canonical, non-canonical, near and past the digit limit, wrong types
ENTRIES = [
    "0", "1", "-1", "1/2", "2", "1/3", "2/4", "3/1", "-0", "+1", "1e-3", "1e5", " 1", "1_0",
    "9" * 4300, "-" + "9" * 4300, "9" * 4301, "1/" + "9" * 4300, THIRDS, SEVENTHS, "200001/2",
    "1/0", 1, 0.5, None, True, [], {},
]
JUNK = [None, True, False, 0, -1, 1.5, "x", "2", [], {}, [[]], [1, 2], 10 ** 30, -(10 ** 4299)]
PRIMES = [2, 3, 5, 7, 4, 1, 0, -2, 997, 1009, 10007, BIG_PRIME, PRIME_LIMIT, PRIME_LIMIT + 2]
RAM_INDICES = ["1", "2", "3", "0", "-1", "unbounded", "1e3", "9" * 4300, "9" * 5000, str(7 ** 5000)]


def _csv(rng, n, sep=","):
    k = n if rng.random() < 0.8 else rng.randint(0, n + 1)
    pool = RATIONALS if rng.random() < 0.4 else ["0", "1", "-1", "1/2", "2", "3/4"]
    return sep.join(rng.choice(pool) for _ in range(k))


def _matrix(rng, n):
    return ";".join(_csv(rng, n) for _ in range(n if rng.random() < 0.8 else rng.randint(1, 3)))


def random_doc(rng):
    """A valid norm document, then zero to three faults or extremes."""
    nrm = fuzz.norm(rng, n=rng.randint(1, 3))
    doc = io.norm_to_doc(nrm)
    n = doc["dim"]
    for _ in range(rng.choice((0, 0, 0, 1, 1, 2, 3))):
        fault = rng.randrange(10)
        if fault == 0:
            doc[rng.choice(("prime", "dim", "values", "basis", "label"))] = rng.choice(JUNK)
        elif fault == 1:
            doc["junk"] = rng.choice(JUNK)
        elif fault == 2:
            doc["label"] = rng.choice(("café", "", 7, None, "x" * 1000))
        elif fault == 3 and n > 1 and isinstance(doc.get("basis"), list):
            doc["basis"] = [doc["basis"][0]] * n  # singular
        elif fault in (4, 5) and isinstance(doc.get("values"), list) and doc["values"]:
            doc["values"][rng.randrange(len(doc["values"]))] = rng.choice(ENTRIES)
        elif fault == 6 and isinstance(doc.get("basis"), list) and doc["basis"]:
            col = doc["basis"][rng.randrange(len(doc["basis"]))]
            if isinstance(col, list) and col:
                col[rng.randrange(len(col))] = rng.choice(ENTRIES)
        elif fault == 7:
            doc["prime"] = rng.choice(PRIMES)
        elif fault == 8:
            doc.pop(rng.choice(("prime", "dim", "values", "basis")), None)
        elif fault == 9 and isinstance(doc.get("values"), list):  # valid, far apart or huge
            far = ("0", "1/2", "200001/2", "9" * 4300, "-" + "9" * 4300, THIRDS, SEVENTHS)
            doc["values"] = [rng.choice(far) for _ in doc["values"]]
    return doc


def random_text(rng, doc):
    """The document as bytes or text, sometimes truncated, nested or not JSON at all."""
    kind = rng.randrange(16)
    text = json.dumps(doc, ensure_ascii=False)
    if kind == 0:
        return text[: rng.randrange(len(text))]
    if kind == 1:
        depth = rng.choice((100, 5000, 200_000))
        return '{"prime":2,"dim":1,"basis":' + "[" * depth + "]" * depth + ',"values":["0"]}'
    if kind == 2:
        return rng.choice((b"\xff\xfe\xfa", b"", b"\x00", "[1, 2]", "null", '"x"', "{}"))
    if kind == 3:  # a JSON integer at and past the digit limit
        digits = "9" * rng.choice((4300, 4301))
        return '{"prime":' + digits + ',"dim":1,"basis":[["1"]],"values":["0"]}'
    return doc


def random_argv(rng, paths, dims):
    """A call of a verb of cli.VERBS on its documents, with every required flag and about half
    of the others, each value drawn by the flag's choices, action or type."""
    i = rng.randrange(len(paths))
    verb = rng.choice(sorted(cli.VERBS))
    _, files, flags = cli.VERBS[verb]
    argv = [verb, paths[i], *(rng.choice(paths) for _ in files[1:])][: len(files) + 1]
    values = {
        cli._vector: lambda: _csv(rng, dims[i]),
        cli._matrix: lambda: _matrix(rng, dims[i]),
        cli._frac: lambda: rng.choice(RATIONALS),
        cli._ram_index: lambda: rng.choice(RAM_INDICES),
        int: lambda: rng.choice(PRIMES),
    }
    for flag, kwargs in flags.items():
        if not kwargs.get("required") and rng.random() < 0.5:
            continue
        if "action" in kwargs:
            argv.append("--" + flag)
        elif "choices" in kwargs:
            argv.append(f"--{flag}={rng.choice(kwargs['choices'])}")
        else:
            argv.append(f"--{flag}={values[kwargs['type']]()}")
    return argv


def test_seeded_cli_fuzz(tmp_path):
    rng = random.Random(20260)
    paths, dims = [], []
    for i in range(60):
        doc = random_doc(rng)
        paths.append(write(tmp_path, f"doc{i}.json", random_text(rng, doc)))
        dims.append(doc["dim"] if isinstance(doc.get("dim"), int) and 0 < doc["dim"] < 6 else 2)
    for _ in range(800):
        check(random_argv(rng, paths, dims))
