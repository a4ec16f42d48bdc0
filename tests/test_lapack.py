import subprocess
import sys

import numpy as np
import pytest

from akws import lapack
from akws.classifier import _spd_factor
from akws.cli import main
from akws.errors import AkwsError, DataError, ShapeError


def spd(e, seed=0):
    s = np.random.default_rng(seed).standard_normal((e + 3, e))
    return s.T @ s + 0.1 * np.eye(e)


def packed(g):
    return lapack.trttf(np.asfortranarray(g))


def unpacked(ar):
    lower = lapack.tfttr(ar)
    return lower + np.tril(lower, -1).T


def lower_factor(g):
    """``potrf``'s factor of C-ordered ``g``, read as a Fortran-ordered view."""
    factor = g.copy().T
    assert lapack.potrf("L", factor) == 0
    return factor


# odd and even orders: RFP lays out odd and even E differently
@pytest.mark.parametrize("e", [1, 7, 130])
class TestRoutines:
    def test_potrf_matches_cholesky(self, e):
        g = spd(e)
        got = np.tril(lower_factor(g))
        assert np.allclose(got, np.linalg.cholesky(g), rtol=0, atol=1e-12 * np.abs(g).max())

    def test_pftri_matches_inv(self, e):
        g = spd(e)
        factor = packed(g)
        assert lapack.pftrf(factor) == 0
        assert lapack.pftri(factor) == 0
        want = np.linalg.inv(g)
        assert np.linalg.norm(unpacked(factor) - want) <= 1e-12 * np.linalg.norm(want)

    def test_packing_round_trips_exactly(self, e):
        g = spd(e)
        ar = packed(g)
        assert ar.shape == (e * (e + 1) // 2,)
        assert lapack.rfp_order(ar) == e
        assert np.array_equal(unpacked(ar), g)
        assert np.array_equal(np.triu(lapack.tfttr(ar), 1), np.zeros((e, e)))

    def test_pftrf_matches_potrf_and_pftrs_solves(self, e):
        g = spd(e)
        factor = packed(g)
        assert lapack.pftrf(factor) == 0
        want = np.tril(lower_factor(g))
        got = np.tril(lapack.tfttr(factor))
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)
        b = np.random.default_rng(4).standard_normal((e, 5))
        x = b.copy(order="F")
        lapack.pftrs(factor, x)
        assert np.linalg.norm(x - np.linalg.solve(g, b)) <= 1e-10 * np.linalg.norm(x)

    def test_sfrk_updates_the_packed_matrix(self, e):
        # the operand is a column slice of a wider buffer, as in update: leading dimension e + 4
        x = np.random.default_rng(3).standard_normal((9, e + 4))[:, :e]
        g = spd(e)
        c = packed(g)
        lapack.sfrk(-1.0, x.T, 1.0, c)
        want = g - x.T @ x
        assert np.linalg.norm(unpacked(c) - want) <= 1e-12 * np.linalg.norm(want)
        before = c.copy()
        lapack.sfrk(-1.0, np.empty((0, e + 4))[:, :e].T, 1.0, c)  # no rows: a no-op
        assert np.array_equal(c, before)

    @pytest.mark.parametrize("uplo", ["U", "L"])
    def test_symm_reads_the_named_triangle_only(self, e, uplo):
        g = spd(e)
        a = np.asfortranarray(np.triu(g) if uplo == "U" else np.tril(g))  # the other triangle is 0
        b = np.random.default_rng(5).standard_normal((e, 6)).copy(order="F")
        c0 = np.random.default_rng(6).standard_normal((e, 6))
        c = c0.copy(order="F")
        lapack.symm("L", uplo, 1.0, a, b, 1.0, c)
        want = g @ b + c0
        assert np.linalg.norm(c - want) <= 1e-12 * np.linalg.norm(want)

    # the variant update calls (R-L-T) and the two of a solve from potrf's factor
    @pytest.mark.parametrize("side, uplo, transa", [("L", "L", "N"), ("L", "L", "T"), ("R", "L", "T")])
    def test_trsm_matches_solve(self, e, side, uplo, transa):
        factor = lower_factor(spd(e))  # its upper triangle still holds g, which trsm must not read
        op = np.tril(factor) if transa == "N" else np.tril(factor).T
        b = np.random.default_rng(2).standard_normal((e, 9) if side == "L" else (9, e))
        x = b.copy(order="F")
        lapack.trsm(side, uplo, transa, "N", 1.0, factor, x)
        want = np.linalg.solve(op, b) if side == "L" else np.linalg.solve(op.T, b.T).T
        assert np.linalg.norm(x - want) <= 1e-12 * np.linalg.norm(want)

    # update's two products: -S W into the residual, and W + Z_a^T Z_r into the weights' array
    @pytest.mark.parametrize("transa, transb", [("T", "N"), ("N", "T")])
    def test_gemm_writes_and_adds_into_a_column_slice(self, e, transa, transb):
        rng = np.random.default_rng(7)
        x, y = rng.standard_normal((e, 5)), rng.standard_normal((5, 6))
        a = np.asfortranarray(x if transa == "N" else x.T)
        b = np.asfortranarray(y if transb == "N" else y.T)
        buffer = np.full((e, 9), np.nan, order="F")
        c = buffer[:, :6]
        lapack.gemm(transa, transb, -1.0, a, b, 0.0, c)  # beta 0: the NaNs in c are not read
        want = -(x @ y)
        assert np.linalg.norm(c - want) <= 1e-12 * np.linalg.norm(want)
        lapack.gemm(transa, transb, 2.0, a, b, 1.0, c)
        assert np.linalg.norm(c + want) <= 1e-12 * np.linalg.norm(want)
        assert np.isnan(buffer[:, 6:]).all()
        with pytest.raises(ShapeError):
            lapack.gemm(transa, transb, 1.0, a, b, 1.0, buffer[:, :7])

    @pytest.mark.parametrize("uplo", ["U", "L"])
    def test_syrk_updates_the_named_triangle_only(self, e, uplo):
        # the operand is a column slice of a wider buffer, as in update: leading dimension e + 4
        x = np.random.default_rng(3).standard_normal((9, e + 4))[:, :e]
        c0 = spd(e)
        c = c0.copy(order="F")
        lapack.syrk(uplo, "N", -1.0, x.T, 1.0, c)
        if uplo == "U":
            named, other = np.triu_indices(e), np.tril_indices(e, -1)
        else:
            named, other = np.tril_indices(e), np.triu_indices(e, 1)
        want = c0 - x.T @ x
        assert np.linalg.norm(c[named] - want[named]) <= 1e-12 * np.linalg.norm(want)
        assert np.array_equal(c[other], c0[other])

    def test_syrk_of_zero_rows_is_a_no_op(self, e, capfd):
        x = np.empty((0, e + 4))[:, :e]  # numpy gives this view zero strides
        c0 = spd(e)
        c = c0.copy(order="F")
        lapack.syrk("L", "N", -1.0, x.T, 1.0, c)
        assert np.array_equal(c, c0)
        assert capfd.readouterr() == ("", "")  # OpenBLAS reports a bad argument on the console and returns

    def test_not_positive_definite_is_a_data_error(self, e):
        g = spd(e)
        g[e - 1, e - 1] = -1.0
        assert lapack.potrf("L", g.copy().T) == e
        with pytest.raises(DataError, match="^the test matrix is not positive definite$"):
            _spd_factor(g.copy(order="F"), "the test matrix")


def test_operands_must_be_fortran_ordered():
    with pytest.raises(ValueError, match="Fortran-ordered float64"):
        lapack.potrf("L", np.eye(3)[:, :2].copy())  # C-ordered 3 x 2
    with pytest.raises(ValueError, match="square"):
        lapack.potrf("L", np.zeros((3, 2), order="F"))
    with pytest.raises(ValueError, match="1-D contiguous float64"):
        lapack.pftrf(np.zeros((3, 2)))
    with pytest.raises(ValueError, match="5 numbers are not the RFP array"):
        lapack.pftrf(np.zeros(5))


def test_every_bound_routine_resolves():
    for name in lapack._SIGNATURES:
        assert lapack._routine(name) is not None


@pytest.fixture
def missing_symbol(monkeypatch):
    monkeypatch.setattr(lapack, "_SUFFIX", "_absent_")
    lapack._routine.cache_clear()
    yield "scipy_dpotrf_absent_"
    lapack._routine.cache_clear()


def test_missing_symbol_names_symbol_and_library(missing_symbol):
    with pytest.raises(AkwsError) as info:
        lapack.potrf("L", np.eye(2, order="F"))
    message = str(info.value)
    assert missing_symbol in message
    assert "_umath_linalg" in message


def test_missing_symbol_run_exits_1_with_one_error_line(missing_symbol, tmp_path, capsys):
    assert main(["run", "--expansion", "48", "--out", str(tmp_path / "o")]) == 1
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    # the first routine a run calls is the first fit's sfrk
    sfrk = missing_symbol.replace("potrf", "sfrk")
    assert lines[0].startswith(f"error: task 0, fit: LAPACK symbol {sfrk} not found in ")


def _python(script, *args):
    return subprocess.run([sys.executable, "-c", script, *args], capture_output=True, text=True)


def test_cli_import_loads_no_scipy():
    got = _python(
        "import sys\n"
        "import akws.cli\n"
        "print(sorted(m for m in sys.modules if m.startswith('scipy')))\n"
    )
    assert got.returncode == 0, got.stderr
    assert got.stdout.strip() == "[]"


@pytest.mark.parametrize("command", ["run", "oracle-check"])
def test_cli_runs_with_scipy_blocked(command, tmp_path):
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None\n"
        "from akws.cli import main\n"
        "sys.exit(main(sys.argv[1:]))\n"
    )
    extra = ["--out", str(tmp_path / "o")] if command == "run" else []
    got = _python(script, command, "--expansion", "48", *extra)
    assert got.returncode == 0, got.stderr
    assert got.stderr == ""
