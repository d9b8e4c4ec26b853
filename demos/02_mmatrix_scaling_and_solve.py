"""Diagonal scalings that make a shifted M-matrix RCDD, then a solve.

mmatrix_scale takes the shift-and-invert bracket's pair first; the
alpha-halving scan it falls back to is walked through phase by phase, and
the scaling is used to solve (s I - A) x = b to a 1e-10 relative residual.
"""

import numpy as np

import perronkit as pk

rng = np.random.default_rng(7)
n = 18
A_dense = np.where(rng.random((n, n)) < 0.35, rng.uniform(0.0, 1.0, (n, n)), 0.0)
rho, _ = pk.oracle.dense_spectral_radius(A_dense + 1e-3)
s = 1.25 * rho  # comfortably above the spectral radius
A = pk.SparseMatrix.from_dense(A_dense)

M_inv = np.linalg.inv(s * np.eye(n) - A_dense)
K = 1.05 * s * max(np.abs(M_inv).sum(axis=0).max(), np.abs(M_inv).sum(axis=1).max())
print(f"n = {n}, rho(A) = {rho:.4f}, s = {s:.4f}, K = {K:.2f}")

pair, report = pk.mmatrix_scale(A, s, eps=0.05, K=K)
S = pk.apply_scaling(pair.left, pk.shifted_m_matrix(A, s, 0.05), pair.right)
print(f"\nbracket: {report.info['bracket_steps']} shift-and-invert steps, "
      f"{len(report.phases)} halving phases; "
      f"L ((1+eps) s I - A) R is RCDD: {pk.check_rcdd(S, 1e-12)}")

# the fallback, run here directly: the halving scan at conditioning bound K
_, scan_pair, report = pk.scaling._mmatrix_scale(A, s, 0.05, K)
print(f"\nhalving scan from alpha0 = {report.alpha0:.4f}: {len(report.phases)} phases "
      f"(formula: {pk.expected_phase_count(A, s, 0.05)}):")
for i, phase in enumerate(report.phases):
    lo, hi = phase.window_right
    print(f"  phase {i:2d}: alpha = {phase.alpha:9.5f}  iterations = {phase.iterations}"
          f"  exit window = [{lo:.3f}, {hi:.3f}]")

S = pk.apply_scaling(scan_pair.left, pk.shifted_m_matrix(A, s, 0.05), scan_pair.right)
print(f"\nL ((1+eps) s I - A) R is RCDD: {pk.check_rcdd(S, 1e-12)}")

op = pk.solve_m(A, s, eps=1e-10, K=K)
b = rng.random(n)
x = op.apply(b)
residual = np.linalg.norm((s * np.eye(n) - A_dense) @ x - b) / np.linalg.norm(b)
print(f"solve_m relative residual: {residual:.3e} (contract 1e-10)")
exact = pk.oracle.dense_solve(s * np.eye(n) - A_dense, b)
print(f"distance to dense solve:   {np.linalg.norm(x - exact):.3e}")
