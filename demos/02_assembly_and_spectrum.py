"""Assembly of the weighted Galerkin systems and their spectra.

Both operator forms discretize into a symmetric positive-definite mass
matrix M (the measure inner product with boundary point masses) and a
symmetric positive-semidefinite energy matrix K.  With neutral boundary
terms the kernel of K is the affine functions for the divergence form,
and the span of x - x0 for a constrained strong non-divergence form.
"""
import numpy as np

from wentzell4 import (
    OperatorForm,
    WentzellParams,
    assemble,
    build_mesh,
    dense_decompose,
    interpolate_poly,
    power_profile,
)
from wentzell4.oracle import expected_kernel, near_zero_count

mesh = build_mesh(16, 0.5)

for form, K in ((OperatorForm.DIVERGENCE, 0.5), (OperatorForm.NON_DIVERGENCE, 1.0)):
    coeff = power_profile(0.5, K)
    system = assemble(form, mesh, coeff, WentzellParams(1.0, 1.0))
    print(f"\n{form.value}, a = |x - 1/2|^{K}")
    pinned = tuple(sorted(set(range(mesh.n_dofs)) - set(system.free.tolist())))
    print(f"  dofs: {mesh.n_dofs}, constrained: {pinned}")
    print(f"  row storage: M and K are {system.M.shape} arrays (7 entries per row)")
    M, K = system.to_dense()
    print(f"  max |M - M^T| = {np.max(np.abs(M - M.T))}")
    print(f"  max |K - K^T| = {np.max(np.abs(K - K.T))}")
    decomp = dense_decompose(system)
    w = decomp.eigenvalues
    print(f"  pencil eigenvalues: min {w[0]:.3e}, max {w[-1]:.3e}")
    # eigenvalues below their rounding bounds, against the kernel of the space
    print(f"  kernel dimension (neutral boundary): {near_zero_count(decomp)}"
          f" (expected {expected_kernel(system)})")
    print(f"  lowest five: {np.array2string(w[:5], precision=4)}")

# the energy matrix annihilates the kernel candidates exactly
system = assemble(OperatorForm.DIVERGENCE, mesh, power_profile(0.5, 0.5), WentzellParams(1, 1))
for coeffs, label in (([1.0], "1"), ([0.0, 1.0], "x")):
    u = interpolate_poly(mesh, coeffs)
    _, K = system.to_dense()
    print(f"\n||K @ interp({label})|| = {np.linalg.norm(K @ u):.3e}")
