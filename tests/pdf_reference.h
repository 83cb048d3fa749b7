// Frozen copy of the discrete-PDF kernel (src/pdf/discrete_pdf.cpp) as it
// stood before the one-sweep max / split-position sum rewrite: point, normal,
// from_masses, mean, variance, cdf, quantile, resampled, sum and max, with
// their floating-point operations in their original order. Test-only. The
// cross-check in pdf_kernel_test.cpp compares the library's kernel against it
// bit for bit; any rewrite of the kernel must keep that test green (a rewrite
// that changes bits needs its own re-pin change, not an edit here).
//
// The bodies are verbatim apart from the class -> struct shell (RefPdf keeps
// DiscretePdf's member names so the code reads the same) and free functions
// in place of the static constructors.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <limits>
#include <stdexcept>
#include <vector>

#include "util/numeric.h"

namespace statsizer::pdf::reference {

struct RefPdf {
  double origin_ = 0.0;
  double step_ = 0.0;
  std::vector<double> mass_;

  [[nodiscard]] std::size_t size() const { return mass_.size(); }
  [[nodiscard]] double origin() const { return origin_; }
  [[nodiscard]] double step() const { return step_; }
  [[nodiscard]] double value_at(std::size_t i) const { return origin_ + step_ * i; }
  [[nodiscard]] double mass_at(std::size_t i) const { return mass_[i]; }
  [[nodiscard]] const std::vector<double>& masses() const { return mass_; }
  [[nodiscard]] double min_value() const { return origin_; }
  [[nodiscard]] double max_value() const { return value_at(size() - 1); }
  [[nodiscard]] bool is_point() const { return mass_.size() == 1; }

  [[nodiscard]] double mean() const {
    double m = 0.0;
    for (std::size_t i = 0; i < mass_.size(); ++i) m += value_at(i) * mass_[i];
    return m;
  }

  [[nodiscard]] double variance() const {
    const double m = mean();
    double v = 0.0;
    for (std::size_t i = 0; i < mass_.size(); ++i) {
      const double d = value_at(i) - m;
      v += d * d * mass_[i];
    }
    return v;
  }

  [[nodiscard]] double cdf(double x) const {
    if (is_point()) return x >= origin_ ? 1.0 : 0.0;
    const double half = 0.5 * step_;
    double acc = 0.0;
    for (std::size_t i = 0; i < mass_.size(); ++i) {
      const double lo = value_at(i) - half;
      if (x >= lo + step_) {
        acc += mass_[i];
      } else if (x > lo) {
        acc += mass_[i] * (x - lo) / step_;
        break;
      } else {
        break;
      }
    }
    return std::min(acc, 1.0);
  }

  [[nodiscard]] double quantile(double q) const {
    if (q < 0.0 || q > 1.0) throw std::domain_error("DiscretePdf::quantile: q outside [0,1]");
    if (is_point()) return origin_;
    const double half = 0.5 * step_;
    double acc = 0.0;
    for (std::size_t i = 0; i < mass_.size(); ++i) {
      if (acc + mass_[i] >= q) {
        if (mass_[i] == 0.0) return value_at(i);
        const double t = (q - acc) / mass_[i];
        return value_at(i) - half + t * step_;
      }
      acc += mass_[i];
    }
    return max_value() + half;
  }

  [[nodiscard]] RefPdf shifted(double c) const {
    RefPdf p = *this;
    p.origin_ += c;
    return p;
  }
};

inline void deposit(std::vector<double>& bins, double origin, double step, double x,
                    double mass) {
  if (step == 0.0 || bins.size() == 1) {
    bins[0] += mass;
    return;
  }
  const double pos = (x - origin) / step;
  if (pos <= 0.0) {
    bins.front() += mass;
    return;
  }
  if (pos >= static_cast<double>(bins.size() - 1)) {
    bins.back() += mass;
    return;
  }
  const auto lo = static_cast<std::size_t>(pos);
  const double t = pos - static_cast<double>(lo);
  bins[lo] += mass * (1.0 - t);
  bins[lo + 1] += mass * t;
}

constexpr double kGridSpanSigmas = 5.0;

inline RefPdf point(double value) {
  RefPdf p;
  p.origin_ = value;
  p.step_ = 0.0;
  p.mass_ = {1.0};
  return p;
}

inline RefPdf from_masses(double origin, double step, std::vector<double> masses) {
  if (masses.empty()) throw std::invalid_argument("DiscretePdf: empty mass vector");
  double total = 0.0;
  for (const double m : masses) {
    if (m < 0.0) throw std::invalid_argument("DiscretePdf: negative mass");
    total += m;
  }
  if (total <= 0.0) throw std::invalid_argument("DiscretePdf: all-zero masses");
  for (double& m : masses) m /= total;
  RefPdf p;
  p.origin_ = origin;
  p.step_ = masses.size() == 1 ? 0.0 : step;
  p.mass_ = std::move(masses);
  return p;
}

inline RefPdf moment_matched(const RefPdf& p, double mean_target, double var_target) {
  if (var_target <= 0.0) return point(mean_target);
  if (p.is_point()) return point(mean_target);
  const double mean_actual = p.mean();
  const double var_actual = p.variance();
  if (var_actual <= 0.0) return point(mean_target);
  const double r = std::sqrt(var_target / var_actual);
  return from_masses(mean_target + r * (p.origin() - mean_actual), r * p.step(),
                     std::vector<double>(p.masses()));
}

inline RefPdf normal(double mean, double sigma, std::size_t samples = 13,
                     double span_sigmas = 4.0) {
  if (sigma < 0.0) throw std::invalid_argument("DiscretePdf::normal: negative sigma");
  if (sigma == 0.0 || samples < 2) return point(mean);
  RefPdf p;
  const double lo = mean - span_sigmas * sigma;
  const double hi = mean + span_sigmas * sigma;
  p.origin_ = lo;
  p.step_ = (hi - lo) / static_cast<double>(samples - 1);
  p.mass_.resize(samples);
  double prev_cdf = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double right_edge = (i + 1 < samples)
                                  ? (p.value_at(i) + 0.5 * p.step_ - mean) / sigma
                                  : std::numeric_limits<double>::infinity();
    const double c = (i + 1 < samples) ? util::normal_cdf(right_edge) : 1.0;
    p.mass_[i] = c - prev_cdf;
    prev_cdf = c;
  }
  return moment_matched(p, mean, sigma * sigma);
}

inline RefPdf resampled(const RefPdf& self, std::size_t samples) {
  if (samples == 0) throw std::invalid_argument("resampled: zero samples");
  if (self.is_point() || samples == 1) return point(self.mean());
  if (samples == self.size()) return self;
  RefPdf p;
  p.origin_ = self.origin_;
  p.step_ = (self.max_value() - self.origin_) / static_cast<double>(samples - 1);
  p.mass_.assign(samples, 0.0);
  for (std::size_t i = 0; i < self.mass_.size(); ++i) {
    deposit(p.mass_, p.origin_, p.step_, self.value_at(i), self.mass_[i]);
  }
  return moment_matched(p, self.mean(), self.variance());
}

inline RefPdf sum(const RefPdf& x, const RefPdf& y, std::size_t samples) {
  if (x.is_point()) return y.shifted(x.origin());
  if (y.is_point()) return x.shifted(y.origin());

  const double mu = x.mean() + y.mean();
  const double sd = std::sqrt(x.variance() + y.variance());
  const double lo = std::max(x.min_value() + y.min_value(), mu - kGridSpanSigmas * sd);
  const double hi = std::min(x.max_value() + y.max_value(), mu + kGridSpanSigmas * sd);
  if (hi <= lo) return point(mu);

  std::vector<double> bins(std::max<std::size_t>(samples, 2), 0.0);
  const double step = (hi - lo) / static_cast<double>(bins.size() - 1);
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xv = x.value_at(i);
    const double xm = x.mass_at(i);
    if (xm == 0.0) continue;
    for (std::size_t j = 0; j < y.size(); ++j) {
      const double m = xm * y.mass_at(j);
      if (m == 0.0) continue;
      deposit(bins, lo, step, xv + y.value_at(j), m);
    }
  }
  return moment_matched(from_masses(lo, step, std::move(bins)), mu,
                        x.variance() + y.variance());
}

inline RefPdf max(const RefPdf& x, const RefPdf& y, std::size_t samples) {
  const double lo_support = std::max(x.min_value(), y.min_value());
  const double hi_support = std::max(x.max_value(), y.max_value());
  if (hi_support <= lo_support) return point(hi_support);

  const std::size_t n = std::max<std::size_t>(samples, 2);
  const auto eval = [&](double lo, double hi) {
    std::vector<double> bins(n, 0.0);
    const double step = (hi - lo) / static_cast<double>(n - 1);
    double prev = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
      const double t = lo + step * static_cast<double>(i);
      const double c = std::min(1.0, x.cdf(t) * y.cdf(t));
      bins[i] = std::max(0.0, c - prev);
      prev = c;
    }
    bins[n - 1] += std::max(0.0, 1.0 - prev);
    return from_masses(lo, step, std::move(bins));
  };

  double e1 = 0.0;
  double e2 = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xv = x.value_at(i);
    const double xm = x.mass_at(i);
    if (xm == 0.0) continue;
    for (std::size_t j = 0; j < y.size(); ++j) {
      const double v = std::max(xv, y.value_at(j));
      const double m = xm * y.mass_at(j);
      e1 += v * m;
      e2 += v * v * m;
    }
  }
  const double var = std::max(0.0, e2 - e1 * e1);
  const double sd = std::sqrt(var);
  if (sd == 0.0) return point(e1);
  const double lo = std::max(lo_support, e1 - kGridSpanSigmas * sd);
  const double hi = std::min(hi_support, e1 + kGridSpanSigmas * sd);
  if (hi <= lo) return point(e1);
  return moment_matched(eval(lo, hi), e1, var);
}

}  // namespace statsizer::pdf::reference
