"""Symmetric M-matrix scaling and factor-width-2 solves.

For symmetric problems a single diagonal V makes V ((1+eps) I - A) V
symmetric diagonally dominant: the right iterate of the shift-and-invert
bracket, since for symmetric A that holds exactly when A v < (1+eps) v.
Matrices of the form C^T C with 2-sparse rows reduce to that case through
their comparison matrix.
"""

import numpy as np

import perronkit as pk

rng = np.random.default_rng(17)
n = 16
B = np.where(rng.random((n, n)) < 0.35, rng.uniform(0.1, 1.0, (n, n)), 0.0)
B = (B + B.T) / 2.0
rho, _ = pk.oracle.dense_spectral_radius(B + 1e-6)
B *= 0.9 / rho
A = pk.SparseMatrix.from_dense(B)

v, report = pk.symm_scale(A, eps=0.05)
S = pk.apply_scaling(v, pk.shifted_m_matrix(A, 1.0, 0.05), v)
print(f"symmetric scaling: V ((1+eps) I - A) V SDD -> {pk.check_sdd(S, 1e-12)} "
      f"from the bracket's right iterate after {report.info['bracket_steps']} steps")

b = rng.normal(size=n)
x, solve_report = pk.symm_solve(A, b, delta=1e-10)
res = np.linalg.norm((np.eye(n) - B) @ x - b) / np.linalg.norm(b)
print(f"symm_solve: residual {res:.2e} after {solve_report.info['bracket_steps']} bracket "
      f"steps and {solve_report.iterations} refinement steps")

print("\nfactor width 2: M = C^T C with at most two nonzeros per row of C")
m = 3 * n
C = np.zeros((m + n, n))
for row in range(m):
    i, j = rng.integers(0, n, 2)
    C[row, i] += rng.normal()
    C[row, j] -= rng.normal()
C[m:, :] = 0.3 * np.eye(n)  # 1-sparse ridge rows keep the width at 2
M_dense = C.T @ C
M = pk.SparseMatrix.from_dense(M_dense)
print(f"M: {n} x {n}, nnz = {M.nnz}, mixed off-diagonal signs: "
      f"{bool((M_dense[np.triu_indices(n, 1)] > 0).any() and (M_dense[np.triu_indices(n, 1)] < 0).any())}")

x, rep = pk.factor_width2_solve(M, b, delta=1e-10)
res = np.linalg.norm(M_dense @ x - b) / np.linalg.norm(b)
vv = rep.info["scaling"]
print(f"solved to residual {res:.2e}; V M V SDD -> "
      f"{pk.check_sdd(pk.apply_scaling(vv, M, vv), 1e-12)} (shift {rep.info['shift']})")
