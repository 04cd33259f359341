#include "eigen.h"

#include <algorithm>
#include <cfloat>
#include <cmath>
#include <functional>

namespace perfbench {

bool SymmetricEigenvalues(std::vector<double> a, int64_t n,
                          std::vector<double>* eigenvalues) {
  auto at = [&a, n](int64_t i, int64_t j) -> double& {
    return a[static_cast<size_t>(i * n + j)];
  };
  std::vector<double> d(static_cast<size_t>(n), 0.0);
  std::vector<double> e(static_cast<size_t>(n), 0.0);
  // Householder reduction to tridiagonal form. Only the lower triangle is
  // read and updated; row i holds the reflector for step i.
  for (int64_t i = n - 1; i > 0; --i) {
    const int64_t l = i - 1;
    double h = 0.0;
    if (l > 0) {
      double scale = 0.0;
      for (int64_t k = 0; k <= l; ++k) scale += std::fabs(at(i, k));
      if (scale == 0.0) {
        e[i] = at(i, l);
      } else {
        for (int64_t k = 0; k <= l; ++k) {
          at(i, k) /= scale;
          h += at(i, k) * at(i, k);
        }
        double f = at(i, l);
        double g = f >= 0.0 ? -std::sqrt(h) : std::sqrt(h);
        e[i] = scale * g;
        h -= f * g;
        at(i, l) = f - g;
        f = 0.0;
        for (int64_t j = 0; j <= l; ++j) {
          g = 0.0;
          for (int64_t k = 0; k <= j; ++k) g += at(j, k) * at(i, k);
          for (int64_t k = j + 1; k <= l; ++k) g += at(k, j) * at(i, k);
          e[j] = g / h;
          f += e[j] * at(i, j);
        }
        const double hh = f / (h + h);
        for (int64_t j = 0; j <= l; ++j) {
          f = at(i, j);
          g = e[j] - hh * f;
          e[j] = g;
          for (int64_t k = 0; k <= j; ++k) {
            at(j, k) -= f * e[k] + g * at(i, k);
          }
        }
      }
    } else {
      e[i] = at(i, l);
    }
    d[i] = h;
  }
  for (int64_t i = 0; i < n; ++i) d[i] = at(i, i);

  // Implicit QL with Wilkinson shifts on the tridiagonal (d, e).
  for (int64_t i = 1; i < n; ++i) e[i - 1] = e[i];
  if (n > 0) e[n - 1] = 0.0;
  for (int64_t l = 0; l < n; ++l) {
    int iterations = 0;
    while (true) {
      int64_t m = l;
      for (; m < n - 1; ++m) {
        const double dd = std::fabs(d[m]) + std::fabs(d[m + 1]);
        if (std::fabs(e[m]) <= DBL_EPSILON * dd) break;
      }
      if (m == l) break;
      if (++iterations > 60) return false;
      double g = (d[l + 1] - d[l]) / (2.0 * e[l]);
      double r = std::hypot(g, 1.0);
      g = d[m] - d[l] + e[l] / (g + std::copysign(r, g));
      double s = 1.0, c = 1.0, p = 0.0;
      bool underflow = false;
      for (int64_t i = m - 1; i >= l; --i) {
        const double f = s * e[i];
        const double b = c * e[i];
        r = std::hypot(f, g);
        e[i + 1] = r;
        if (r == 0.0) {
          d[i + 1] -= p;
          e[m] = 0.0;
          underflow = true;
          break;
        }
        s = f / r;
        c = g / r;
        g = d[i + 1] - p;
        r = (d[i] - g) * s + 2.0 * c * b;
        p = s * r;
        d[i + 1] = g + p;
        g = c * r - b;
      }
      if (underflow) continue;
      d[l] -= p;
      e[l] = g;
      e[m] = 0.0;
    }
  }
  std::sort(d.begin(), d.end(), std::greater<double>());
  *eigenvalues = std::move(d);
  return true;
}

bool CholeskySolve(std::vector<double> a, int64_t n,
                   const std::vector<double>& b, std::vector<double>* x) {
  auto at = [&a, n](int64_t i, int64_t j) -> double& {
    return a[static_cast<size_t>(i * n + j)];
  };
  // In-place lower factor L (row-major, so both dot products run along
  // contiguous rows).
  for (int64_t j = 0; j < n; ++j) {
    double s = at(j, j);
    for (int64_t k = 0; k < j; ++k) s -= at(j, k) * at(j, k);
    if (!(s > 0.0)) return false;
    const double ljj = std::sqrt(s);
    at(j, j) = ljj;
    for (int64_t i = j + 1; i < n; ++i) {
      double t = at(i, j);
      for (int64_t k = 0; k < j; ++k) t -= at(i, k) * at(j, k);
      at(i, j) = t / ljj;
    }
  }
  std::vector<double> y(b);
  for (int64_t i = 0; i < n; ++i) {
    for (int64_t k = 0; k < i; ++k) y[i] -= at(i, k) * y[k];
    y[i] /= at(i, i);
  }
  for (int64_t i = n - 1; i >= 0; --i) {
    for (int64_t k = i + 1; k < n; ++k) y[i] -= at(k, i) * y[k];
    y[i] /= at(i, i);
  }
  *x = std::move(y);
  return true;
}

}  // namespace perfbench
