// Small dense solvers the answer checks use. Written here, not taken from
// src/linalg, so a fault in the program's kernels cannot hide in its own
// check.
#ifndef PERFBENCH_EIGEN_H_
#define PERFBENCH_EIGEN_H_

#include <cstdint>
#include <vector>

namespace perfbench {

/// All eigenvalues of the symmetric n x n row-major matrix `a` (consumed),
/// in descending order: Householder tridiagonalisation, then implicit QL
/// with Wilkinson shifts. Returns false if QL fails to converge.
bool SymmetricEigenvalues(std::vector<double> a, int64_t n,
                          std::vector<double>* eigenvalues);

/// Solves the symmetric positive definite system A x = b (A row-major
/// n x n, consumed) by Cholesky. Returns false if A is not positive
/// definite to working precision.
bool CholeskySolve(std::vector<double> a, int64_t n,
                   const std::vector<double>& b, std::vector<double>* x);

}  // namespace perfbench

#endif  // PERFBENCH_EIGEN_H_
