"""The paper's results at and past grlb's default ceiling, n <= 100: `python -m pytest ceiling -q
--durations=0`, with `PYTHONPATH=src` if grlb is not installed.  The suites and records run
in-process through `cli.main`, so the pinned bytes are the command's own; the oracle suite runs
in a child, so its peak RSS is its own.  pyproject.toml makes a RuntimeWarning an error here too.
"""

import hashlib
import io
import json
import os
import re
import sys
from contextlib import redirect_stdout

import pytest

from grlb import cli, closedforms, engine, oracle
from grlb.exactnum import frac_str


def grlb_stdout(args: str, max_n: int | None = None) -> bytes:
    """The stdout of `grlb args` under GRLB_MAX_N=max_n (unset for None); the command must exit 0."""
    out = io.TextIOWrapper(io.BytesIO(), "utf-8", write_through=True)
    with pytest.MonkeyPatch.context() as mp, redirect_stdout(out):
        mp.delenv("GRLB_MAX_N", raising=False)
        if max_n is not None:
            mp.setenv("GRLB_MAX_N", str(max_n))
        assert cli.main(args.split()) == 0
    return out.buffer.getvalue()


@pytest.mark.parametrize("suite, checks, sha256", [
    ("lemmas", 5246, "d4b09e8c6d29b3d942178e8464d67b0684dd33913361c59c4a4a5ca193fb7b63"),
    ("bounds", 5048, "9b881250d791e538d7378d61bf0f9054b0e5bec2d996f5ea2536fd1621e5ca4b"),
    ("closed-forms", 5147, "5a8a0225de97fa098b5729bdd13ece91b358f4d1160bd88647505d12b6efe868"),
], ids=["lemmas", "bounds", "closed-forms"])
def test_suite_at_the_default_ceiling(suite, checks, sha256):
    stdout = grlb_stdout(f"verify --suite {suite} --max-n 100")
    assert f"{checks}/{checks} checks passed" in stdout.decode().splitlines()
    # These suites print exact values only, so their stdout is pinned byte for byte.
    assert hashlib.sha256(stdout).hexdigest() == sha256


def test_oracle_suite_at_the_default_ceiling(tmp_path):
    env = {k: v for k, v in os.environ.items() if k != "GRLB_MAX_N"} | {"PYTHONWARNINGS": "error::RuntimeWarning"}
    out = tmp_path / "stdout.txt"
    to_out = (os.POSIX_SPAWN_OPEN, 1, str(out), os.O_WRONLY | os.O_CREAT, 0o600)
    args = [sys.executable, "-m", "grlb.cli", "verify", "--suite", "oracle", "--max-n", "100"]
    # wait4 reads this child's own peak RSS; RUSAGE_CHILDREN, the largest of every child reaped.
    _, status, usage = os.wait4(os.posix_spawn(sys.executable, args, env, file_actions=[to_out]), 0)
    stdout = out.read_text()
    assert os.waitstatus_to_exitcode(status) == 0, stdout[-2000:]
    assert "5051/5051 checks passed" in stdout.splitlines(), stdout[-2000:]
    # The oracle's quadrature runs in bounded blocks; one (rows x nodes x forms) array would pass 128 MB.
    assert usage.ru_maxrss / 1024 <= 128
    # About 3e-13 today, far inside each check's 1e-9: a loss of precision shows here first.
    errors = [float(x) for x in re.findall(r"\b(?:tbar|R)_err=(\S+)", stdout)]
    assert len(errors) == 2 * 5051
    assert max(errors) <= 1e-12


@pytest.mark.parametrize("datum, max_n", [  # X1(165)'s R is past the str(int) digit limit.
    ("X1 --n 100", None), ("X1 --n 165", 800), ("X1 --n 300", 800), ("X1 --n 400", 800),
    ("X3 --n 300 --k 150", 800), ("X3 --n 800 --k 400", 800), ("X3 --n 800 --k 600", 800),
    ("X3 --n 800 --k 800", 800), ("X3 --n 4000 --k 2000", 4000), ("X3 --n 4000 --k 3000", 4000),
])
def test_closed_form_record_is_the_engines_but_for_provenance(datum, max_n):
    closed, engine_ = (json.loads(grlb_stdout(f"compute --family {datum} --route {route} --format json", max_n))
                       for route in ("closed-form", "engine"))
    del closed["provenance"], engine_["provenance"]
    assert closed == engine_


def test_x1_300_text_r_line_is_its_json_r():
    text = grlb_stdout("compute --family X1 --n 300 --format text", 800).decode()
    json_r = json.loads(grlb_stdout("compute --family X1 --n 300 --format json", 800))["R"]
    assert re.findall(r"^R +(.*)$", text, re.M) == [json_r]


def test_x3_4000_2000_record_prints_the_beta_integral():
    rec = json.loads(grlb_stdout("compute --family X3 --n 4000 --k 2000 --route closed-form --format json", 4000))
    assert rec["R"] == frac_str(closedforms.r_x3_formula(4000, 2000))


@pytest.mark.parametrize("n, k", [(1600, 800), (1600, 3), (1600, 1600), (4000, 2000)])
def test_x3_product_is_its_beta_integral(n, k):
    assert closedforms.r_x3_closed(n, k) == closedforms.r_x3_formula(n, k)


@pytest.mark.parametrize("n", [800, 1600])
def test_x1_closed_form_is_the_engines_report(monkeypatch, n):
    monkeypatch.setenv("GRLB_MAX_N", "1600")
    assert closedforms.closed_form("X1", n) == tuple(engine.report(engine.HorosphericalDatum("X1", n=n)))


@pytest.mark.parametrize("n", [400, 800])
def test_x1_sign_lemma_holds(n):
    assert closedforms.lemma_x1_sign(n).holds


def test_x1_comparison_integral_at_1600_is_0():
    assert closedforms.x1_comparison_integral(1600) == 0


# An unshifted density underflows at the first three and an unscaled one divided by zero at the last two.
@pytest.mark.parametrize("n, k", [(400, None), (400, 200), (800, 400), (700, 525), (800, 600)])
def test_oracle_crosschecks_past_the_ceiling(monkeypatch, n, k):
    monkeypatch.setenv("GRLB_MAX_N", "800")
    rep = oracle.crosscheck(engine.HorosphericalDatum("X1" if k is None else "X3", n=n, k=k))
    assert rep.ok, rep
