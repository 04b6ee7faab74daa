"""Shared fixtures."""

import io
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction
from typing import NamedTuple

import pytest

from grlb import cli


class CliResult(NamedTuple):
    exit_code: int
    stdout: str
    stderr: str

    @property
    def output(self) -> str:
        """Both streams, stdout first."""
        return self.stdout + self.stderr


@pytest.fixture
def run_grlb():
    """Run `grlb` in-process on a list of arguments.

    `env` maps variables to set, or to unset where the value is None, for
    the one call.  The command's exit code is its return value or SystemExit's.
    """

    def run(args: list[str], env: dict[str, str | None] | None = None) -> CliResult:
        out, err = io.TextIOWrapper(io.BytesIO(), "utf-8"), io.TextIOWrapper(io.BytesIO(), "utf-8")
        with pytest.MonkeyPatch.context() as mp, redirect_stdout(out), redirect_stderr(err):
            for name, value in (env or {}).items():
                if value is None:
                    mp.delenv(name, raising=False)
                else:
                    mp.setenv(name, value)
            try:
                code = cli.main(args)
            except SystemExit as exc:
                code = exc.code
        out.flush()
        err.flush()
        return CliResult(code, out.buffer.getvalue().decode(), err.buffer.getvalue().decode())

    return run


@pytest.fixture
def horner():
    """Evaluate a polynomial, given as its coefficients lowest degree first, exactly at Fraction(x)."""

    def evaluate(coeffs, x) -> Fraction:
        x, acc = Fraction(x), Fraction(0)
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    return evaluate
