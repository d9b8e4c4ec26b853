"""Command-line front end: subcommands, exit codes, report determinism."""

import json
from pathlib import Path

import numpy as np
import pytest

from perronkit import (
    apply_scaling,
    check_rcdd,
    cli,
    load_labeled_graph,
    load_matrix,
    product_graph,
    shifted_m_matrix,
)
from perronkit.cli import main

from conftest import bracket_off

DATA = Path(__file__).parent / "data"

TWO_CYCLE_MTX = """%%MatrixMarket matrix coordinate real general
2 2 2
1 2 1.0
2 1 1.0
"""

BIG_RHO_MTX = """%%MatrixMarket matrix coordinate real general
2 2 2
1 2 2.0
2 1 2.0
"""

HALF_MTX = """%%MatrixMarket matrix coordinate real general
2 2 2
1 2 0.5
2 1 0.5
"""

# rho about 0.59 with a row and a column sum of 1.6: the bracket's all-ones
# start settles nothing at s (1 + eps) = 1.1, and two power steps do
SKEW_MTX = """%%MatrixMarket matrix coordinate real general
3 3 6
1 2 1.5
1 3 0.1
2 1 0.1
2 3 0.2
3 1 0.3
3 2 0.1
"""

# a weighted 3-cycle, rho = 0.75^(1/3) about 0.91: periodic, so a power step
# only permutes the CW ratios (1.5, 0.5, 0.5) of the all-ones start, and one
# shift-and-invert step settles rho < 1.1
CYCLE_MTX = """%%MatrixMarket matrix coordinate real general
3 3 3
1 2 1.5
2 3 0.5
3 1 0.5
"""

GRAPH_TXT = "2 2 1\n1 2 1 1.0\n2 1 1 1.0\n"


@pytest.fixture
def workdir(tmp_path):
    (tmp_path / "two_cycle.mtx").write_text(TWO_CYCLE_MTX)
    (tmp_path / "big_rho.mtx").write_text(BIG_RHO_MTX)
    (tmp_path / "half.mtx").write_text(HALF_MTX)
    (tmp_path / "skew.mtx").write_text(SKEW_MTX)
    (tmp_path / "cycle.mtx").write_text(CYCLE_MTX)
    (tmp_path / "g.txt").write_text(GRAPH_TXT)
    (tmp_path / "b.txt").write_text("1.0\n1.0\n")
    return tmp_path


def run(workdir, *argv):
    out = workdir / "report.json"
    code = main([*argv, "--no-timestamp", "--output", str(out)])
    text = out.read_text() if out.exists() else ""
    return code, text


class TestSubcommands:
    def test_perron(self, workdir):
        code, text = run(
            workdir, "perron", "--matrix", str(workdir / "two_cycle.mtx"), "--delta", "0.1"
        )
        assert code == 0
        report = json.loads(text)
        assert report["schema"] == 1
        assert 0.9 < report["s"] <= 1.0 + 1e-12
        assert report["subcommand"] == "perron"

    def test_mdecide_negative_exit_two(self, workdir):
        code, text = run(
            workdir, "mdecide", "--matrix", str(workdir / "big_rho.mtx"), "--eps", "0.1"
        )
        assert code == 2
        report = json.loads(text)
        assert report["verdict"] == "not_m_matrix"
        assert report["witness"]

    def test_negative_reports_carry_their_certificate(self, workdir):
        """A bracket negative of ``mdecide`` and a diverging Katz decay
        report the certificate that proves them, and its vectors recompute
        the CW lower bound ``s >= 1``; reruns are byte-identical."""
        A = load_matrix(workdir / "big_rho.mtx").to_dense()
        runs = [
            (["mdecide", "--matrix", str(workdir / "big_rho.mtx"), "--eps", "0.1"], A),
            (
                [
                    "katz", "--matrix", str(workdir / "two_cycle.mtx"),
                    "--b", str(workdir / "b.txt"), "--alpha", "1.5", "--eps", "1e-8",
                ],
                1.5 * load_matrix(workdir / "two_cycle.mtx").to_dense(),
            ),
        ]
        for argv, B in runs:
            code, first = run(workdir, *argv)
            _, second = run(workdir, *argv)
            assert code == 2 and first == second
            cert = json.loads(first)["certificate"]
            left, right = np.array(cert["left"]), np.array(cert["right"])
            lower = max((B @ right / right).min(), (B.T @ left / left).min())
            assert lower == cert["s"] >= 1.0

    def test_mdecide_positive(self, workdir):
        code, text = run(
            workdir, "mdecide", "--matrix", str(workdir / "half.mtx"), "--eps", "0.1"
        )
        assert code == 0
        assert json.loads(text)["verdict"] == "is_m_matrix_shifted"

    def test_scale_and_solve(self, workdir, monkeypatch):
        """With the bracket off, ``scale`` reports the scan's phases."""
        bracket_off(monkeypatch)
        code, text = run(
            workdir,
            "scale",
            "--matrix", str(workdir / "half.mtx"),
            "--s", "1.0",
            "--eps", "0.1",
        )
        assert code == 0
        report = json.loads(text)
        assert report["phases"] == len(report["phase_iterations"])

        code, text = run(
            workdir,
            "solve",
            "--matrix", str(workdir / "half.mtx"),
            "--b", str(workdir / "b.txt"),
            "--s", "1.0",
            "--eps", "1e-10",
        )
        assert code == 0
        report = json.loads(text)
        assert np.allclose(report["x"], [2.0, 2.0], atol=1e-8)

    @pytest.mark.parametrize(
        "name, steps",
        [pytest.param(name, steps, id=name) for name, steps in [
            ("half", (0, 0)), ("skew", (0, 2)), ("cycle", (1, 0))
        ]],
    )
    def test_scale_from_the_bracket(self, workdir, name, steps):
        """``scale`` answers from the bracket's pair: no phases, its
        shift-and-invert and power steps counted, its vectors making ``(1 +
        eps) s I - A`` RCDD, and reruns byte-identical."""
        path = str(workdir / f"{name}.mtx")
        code, text = run(workdir, "scale", "--matrix", path, "--s", "1.0", "--eps", "0.1")
        _, again = run(workdir, "scale", "--matrix", path, "--s", "1.0", "--eps", "0.1")
        assert code == 0 and text == again
        report = json.loads(text)
        assert report["phases"] == 0 and report["phase_iterations"] == []
        assert (report["bracket_steps"], report["power_steps"]) == steps
        A = load_matrix(path)
        S = apply_scaling(report["left"], shifted_m_matrix(A, 1.0, 0.1), report["right"])
        assert check_rcdd(S, 1e-12)

    @pytest.mark.parametrize("name, steps", [("half", (0, 0)), ("skew", (0, 2)), ("cycle", (1, 0))])
    def test_mdecide_counts_the_bracket_steps(self, workdir, name, steps):
        """A positive ``mdecide`` report counts the bracket's
        shift-and-invert and power steps, as ``scale``'s does."""
        path = str(workdir / f"{name}.mtx")
        code, text = run(workdir, "mdecide", "--matrix", path, "--eps", "0.1")
        report = json.loads(text)
        assert code == 0 and report["verdict"] == "is_m_matrix_shifted"
        assert (report["bracket_steps"], report["power_steps"]) == steps

    def test_katz(self, workdir):
        code, text = run(
            workdir,
            "katz",
            "--matrix", str(workdir / "two_cycle.mtx"),
            "--b", str(workdir / "b.txt"),
            "--alpha", "0.5",
            "--eps", "1e-10",
        )
        assert code == 0
        assert np.allclose(json.loads(text)["v"], [2.0, 2.0], atol=1e-8)

    def test_katz_decay_too_large_exit_two(self, workdir):
        code, _ = run(
            workdir,
            "katz",
            "--matrix", str(workdir / "two_cycle.mtx"),
            "--b", str(workdir / "b.txt"),
            "--alpha", "1.5",
            "--eps", "1e-8",
        )
        assert code == 2

    def test_leontief(self, workdir):
        code, text = run(
            workdir,
            "leontief",
            "--matrix", str(workdir / "half.mtx"),
            "--d", str(workdir / "b.txt"),
        )
        assert code == 0
        report = json.loads(text)
        assert report["hawkins_simons"] is True
        assert np.allclose(report["x"], [2.0, 2.0], atol=1e-6)

        code, text = run(
            workdir, "leontief", "--matrix", str(workdir / "big_rho.mtx")
        )
        assert code == 2
        assert json.loads(text)["hawkins_simons"] is False

    def test_svd(self, tmp_path):
        (tmp_path / "tri.mtx").write_text(
            "%%MatrixMarket matrix coordinate real general\n"
            "2 2 3\n1 1 1.0\n1 2 1.0\n2 2 1.0\n"
        )
        code, text = run(tmp_path, "svd", "--matrix", str(tmp_path / "tri.mtx"), "--delta", "1e-6")
        assert code == 0
        report = json.loads(text)
        assert report["sigma"] == pytest.approx(1.6180339887, rel=1e-6)

    def test_kernel(self, workdir):
        code, text = run(
            workdir,
            "kernel",
            "--g", str(workdir / "g.txt"),
            "--h", str(workdir / "g.txt"),
            "--lambda", "0.25",
            "--eps", "1e-8",
        )
        assert code == 0
        report = json.loads(text)
        # dense oracle: product of the directed 2-cycle with itself is a
        # 4-permutation; with uniform p = q the kernel is 1/(3) at lam = 1/4
        assert report["kappa"] == pytest.approx(1.0 / 3.0, abs=1e-8)

    def test_input_error_exit_one(self, workdir, capsys):
        code = main(
            ["perron", "--matrix", str(workdir / "missing.mtx"), "--delta", "0.1"]
        )
        assert code == 1
        assert "error:" in capsys.readouterr().err

    def test_kernel_names_a_malformed_line(self, workdir, capsys):
        (workdir / "bad.txt").write_text("3 2 1\n1 2 1 1.0\n2 x 1 1.0\n")
        code = main(
            [
                "kernel", "--g", str(workdir / "bad.txt"), "--h", str(workdir / "g.txt"),
                "--lambda", "0.25", "--eps", "1e-8",
            ]
        )
        assert code == 1
        assert f"error: {workdir / 'bad.txt'}: line 3: " in capsys.readouterr().err

    def test_katz_rejects_a_zero_eps(self, capsys):
        """``--eps 0`` is an input error, not a traceback: exit 1 with the
        library's message."""
        code = main(
            [
                "katz", "--matrix", str(DATA / "basic_general.mtx"),
                "--alpha", "0.1", "--eps", "0",
            ]
        )
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: eps must lie in (0, 1)\n"

    def test_mdecide_rejects_a_nan_eps(self, tmp_path, capsys):
        """``--eps nan`` is an input error: exit 1 and no report, whose
        ``NaN`` would not be valid JSON."""
        code, text = run(
            tmp_path, "mdecide", "--matrix", str(DATA / "basic_general.mtx"), "--eps", "nan"
        )
        assert code == 1 and text == ""
        assert capsys.readouterr().err == "error: eps and gamma must be positive\n"

    def test_mdecide_rejects_an_infinite_eps(self, tmp_path, capsys):
        """``--eps inf`` is an input error too: exit 1 and no report, rather
        than a positive verdict whose ``Infinity`` is not valid JSON."""
        code, text = run(
            tmp_path, "mdecide", "--matrix", str(DATA / "basic_general.mtx"), "--eps", "inf"
        )
        assert code == 1 and text == ""
        assert capsys.readouterr().err == "error: eps and gamma must be positive\n"

    def test_mdecide_at_the_bound_takes_the_scan(self, tmp_path):
        """On ``[[0, 1.5], [1.5, 0]]`` at ``eps = 0.5`` the bracket's bounds
        meet at ``1 + eps``, so the scan decides and its witness carries no
        certificate; reruns are byte-identical."""
        argv = ["mdecide", "--matrix", str(DATA / "two_cycle_at_bound.mtx"), "--eps", "0.5"]
        code, first = run(tmp_path, *argv)
        _, second = run(tmp_path, *argv)
        assert code == 2 and first == second
        report = json.loads(first)
        assert report["verdict"] == "not_m_matrix" and "certificate" not in report
        assert report["witness"] == (
            "inner residual passed its ceiling or went non-finite at phase 2 (alpha=3.750000e-01)"
        )


class TestReducibleInputs:
    """``katz``, ``leontief`` and ``kernel`` on the reducible inputs under
    ``tests/data``, each with a zero row and a zero column: the whole
    matrix's bracket decides them and the reports check against dense
    references."""

    ECONOMY = DATA / "reducible_economy.mtx"

    def test_katz(self, tmp_path):
        alpha, eps = 1.5, 1e-10
        code, text = run(
            tmp_path, "katz", "--matrix", str(self.ECONOMY),
            "--alpha", repr(alpha), "--eps", repr(eps),
        )
        assert code == 0
        report = json.loads(text)
        A = load_matrix(self.ECONOMY).to_dense()
        v, b = np.array(report["v"]), np.ones(A.shape[0])
        assert np.linalg.norm(v - alpha * A @ v - b) <= eps * np.linalg.norm(b)
        assert report["residual"] <= eps
        assert np.allclose(v, np.linalg.solve(np.eye(A.shape[0]) - alpha * A, b), rtol=1e-9)

    def test_leontief(self, tmp_path):
        eps = 1e-10
        d = np.array([1.0, 0.5, 2.0, 0.0, 1.5])
        (tmp_path / "d.txt").write_text("".join(f"{v}\n" for v in d))
        code, text = run(
            tmp_path, "leontief", "--matrix", str(self.ECONOMY),
            "--d", str(tmp_path / "d.txt"), "--eps", repr(eps),
        )
        assert code == 0
        report = json.loads(text)
        assert report["hawkins_simons"] is True
        A = load_matrix(self.ECONOMY).to_dense()
        x = np.array(report["x"])
        assert np.linalg.norm(x - A @ x - d) <= eps * np.linalg.norm(d)

    def test_kernel(self, tmp_path):
        """The reported bound is at least the dense oracle's ``||q|| eps
        ||p|| ||(I - lam W)^-1||_2`` and covers the value's error."""
        lam, eps = 1.0, 1e-8
        code, text = run(
            tmp_path, "kernel",
            "--g", str(DATA / "reducible_g.txt"), "--h", str(DATA / "reducible_h.txt"),
            "--lambda", repr(lam), "--eps", repr(eps),
        )
        assert code == 0
        report = json.loads(text)
        W = product_graph(
            load_labeled_graph(DATA / "reducible_g.txt"),
            load_labeled_graph(DATA / "reducible_h.txt"),
        ).matrix.to_dense()
        n = W.shape[0]
        assert report["product_vertices"] == n
        p = np.full(n, 1.0 / n)
        resolvent = np.linalg.inv(np.eye(n) - lam * W)
        oracle_bound = eps * np.linalg.norm(p) ** 2 * np.linalg.norm(resolvent, 2)
        assert oracle_bound <= report["scalar_error_bound"]
        assert abs(report["kappa"] - p @ resolvent @ p) <= report["scalar_error_bound"]


class TestDeterminism:
    def test_reports_byte_identical(self, workdir):
        _, first = run(
            workdir, "perron", "--matrix", str(workdir / "two_cycle.mtx"),
            "--delta", "0.1", "--seed", "3",
        )
        _, second = run(
            workdir, "perron", "--matrix", str(workdir / "two_cycle.mtx"),
            "--delta", "0.1", "--seed", "3",
        )
        assert first == second

    def test_tsv_format(self, workdir):
        out = workdir / "report.tsv"
        code = main([
            "mdecide", "--matrix", str(workdir / "half.mtx"), "--eps", "0.1",
            "--no-timestamp", "--format", "tsv", "--output", str(out),
        ])
        assert code == 0
        lines = dict(
            line.split("\t", 1) for line in out.read_text().strip().split("\n")
        )
        assert lines["verdict"] == "is_m_matrix_shifted"


class TestCachedParser:
    """The argument parser is built once per process and keeps no state
    from one ``main`` call to the next."""

    def test_an_omitted_flag_takes_its_default_again(self, workdir):
        assert cli._build_parser() is cli._build_parser()
        (workdir / "b13.txt").write_text("1.0\n3.0\n")
        katz = ["katz", "--matrix", str(workdir / "two_cycle.mtx"), "--alpha", "0.5", "--eps", "1e-10"]
        code, text = run(workdir, *katz, "--b", str(workdir / "b13.txt"))
        assert code == 0
        # (I - P/2)^-1 [1, 3] with P the 2-cycle
        assert np.allclose(json.loads(text)["v"], [10.0 / 3.0, 14.0 / 3.0], atol=1e-8)
        code, text = run(workdir, *katz)
        assert code == 0
        assert np.allclose(json.loads(text)["v"], [2.0, 2.0], atol=1e-8)

    def test_a_bad_argument_still_exits_two(self, workdir):
        perron = ["perron", "--matrix", str(workdir / "two_cycle.mtx")]
        assert run(workdir, *perron, "--delta", "0.1")[0] == 0
        with pytest.raises(SystemExit) as exc:
            main([*perron, "--delta", "not-a-number"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            main(perron)
        assert exc.value.code == 2
        assert run(workdir, *perron, "--delta", "0.1")[0] == 0


class TestSidecarVectors:
    def test_long_vectors_spill_to_files(self, tmp_path):
        n = 10_050
        lines = [f"%%MatrixMarket matrix coordinate real general\n{n} {n} {n}"]
        lines += [f"{i} {i} 0.5" for i in range(1, n + 1)]
        (tmp_path / "diag.mtx").write_text("\n".join(lines) + "\n")
        out = tmp_path / "report.json"
        code = main([
            "solve",
            "--matrix", str(tmp_path / "diag.mtx"),
            "--b", str(tmp_path / "b.txt"),
            "--s", "1.0",
            "--eps", "1e-10",
            "--no-timestamp",
            "--output", str(out),
        ])
        assert code == 1  # b.txt missing: clean input error first
        (tmp_path / "b.txt").write_text("1.0\n" * n)
        code = main([
            "solve",
            "--matrix", str(tmp_path / "diag.mtx"),
            "--b", str(tmp_path / "b.txt"),
            "--s", "1.0",
            "--eps", "1e-10",
            "--no-timestamp",
            "--output", str(out),
        ])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["x"]["length"] == n
        sidecar = report["x"]["path"]
        from perronkit import load_vector

        x = load_vector(sidecar)
        assert np.allclose(x, 2.0, atol=1e-8)


class TestResidualRecomputability:
    def test_perron_report_residuals(self, workdir):
        _, text = run(
            workdir, "perron", "--matrix", str(workdir / "two_cycle.mtx"), "--delta", "0.1"
        )
        report = json.loads(text)
        A = load_matrix(workdir / "two_cycle.mtx")
        right = np.array(report["right"])
        res = right - A.matvec(right) / report["s"]
        recomputed = np.abs(res).max() / np.abs(right).max()
        assert abs(recomputed - report["residual_right"]) <= 1e-12

    def test_solve_report_residual(self, workdir):
        _, text = run(
            workdir,
            "solve",
            "--matrix", str(workdir / "half.mtx"),
            "--b", str(workdir / "b.txt"),
            "--s", "1.0",
            "--eps", "1e-10",
        )
        report = json.loads(text)
        A = load_matrix(workdir / "half.mtx")
        x = np.array(report["x"])
        b = np.ones(2)
        rel = np.linalg.norm(b - (x - A.matvec(x))) / np.linalg.norm(b)
        assert abs(rel - report["residual"]) <= 1e-12
