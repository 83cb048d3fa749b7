#include "pdf/discrete_pdf.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <stdexcept>

#include "debug/validate.h"
#include "util/check.h"
#include "util/numeric.h"

// Determinism contract: every result of this kernel is part of the bitwise
// pins (golden sigmas, what-if == from-scratch, thread-count invariance), so
// the floating-point operations below keep their operands and their order.
// Faster rewrites restructure loops, never arithmetic; tests/pdf_reference.h
// freezes the arithmetic and pdf_kernel_test compares against it bit for bit.

namespace statsizer::pdf {

namespace {
/// Deposits @p mass at grid position @p pos (in bins from the origin),
/// splitting it linearly between the two neighbouring bins so the first
/// moment is preserved exactly; positions outside the grid fold into the end
/// bins.
void deposit_at(std::vector<double>& bins, double pos, double mass) {
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

/// Divides @p masses by their total (from_masses' normalization).
void normalize(std::vector<double>& masses) {
  if (masses.empty()) throw std::invalid_argument("DiscretePdf: empty mass vector");
  double total = 0.0;
  for (const double m : masses) {
    if (!std::isfinite(m)) throw std::invalid_argument("DiscretePdf: non-finite mass");
    if (m < 0.0) throw std::invalid_argument("DiscretePdf: negative mass");
    total += m;
  }
  if (total <= 0.0) throw std::invalid_argument("DiscretePdf: all-zero masses");
  if (!std::isfinite(total)) throw std::invalid_argument("DiscretePdf: masses sum to infinity");
  for (double& m : masses) m /= total;
}

/// Mean and variance of the grid (origin, step, masses): the one definition
/// behind DiscretePdf::mean()/variance(), callable on a mass vector that is
/// not (yet) a DiscretePdf.
double mean_of(double origin, double step, const std::vector<double>& masses) {
  double m = 0.0;
  for (std::size_t i = 0; i < masses.size(); ++i) m += (origin + step * i) * masses[i];
  return m;
}

double variance_of(double origin, double step, const std::vector<double>& masses, double mean) {
  double v = 0.0;
  for (std::size_t i = 0; i < masses.size(); ++i) {
    const double d = (origin + step * i) - mean;
    v += d * d * masses[i];
  }
  return v;
}

double variance_of(const DiscretePdf& p, double mean) {
  return variance_of(p.origin(), p.step(), p.masses(), mean);
}

/// Grid half-width in sigmas for freshly produced pdfs. Without this trim the
/// support of a sum grows linearly with path depth (min/max add) while the
/// true sigma only grows as sqrt(depth); a fixed sample count would then
/// become so coarse that rebinning noise dominates the variance. Trimming to
/// a moment-based window keeps the per-bin resolution proportional to sigma
/// at any depth. Mass outside the window (~1e-6) folds into the end bins.
constexpr double kGridSpanSigmas = 5.0;

/// Affinely rescales the pdf (origin, step, masses) around its mean so that
/// its mean/variance equal the externally known exact values; the mass vector
/// is reused, not copied. Grid-based sum/max unavoidably smear mass across
/// bins (each linear deposit adds ~step^2/6 of variance); left alone that
/// error *compounds exponentially with logic depth*. Both operations can
/// compute their exact result moments cheaply, so the residual error after
/// this correction is only in shape, not in the first two moments.
DiscretePdf moment_matched(double origin, double step, std::vector<double> masses,
                           double mean_target, double var_target) {
  if (var_target <= 0.0 || masses.size() == 1) return DiscretePdf::point(mean_target);
  const double mean_actual = mean_of(origin, step, masses);
  const double var_actual = variance_of(origin, step, masses, mean_actual);
  if (var_actual <= 0.0) return DiscretePdf::point(mean_target);
  const double r = std::sqrt(var_target / var_actual);
  // The affine map x -> mean_target + r * (x - mean_actual) preserves masses
  // (from_masses still renormalizes them: that division is part of the bits).
  return DiscretePdf::from_masses(mean_target + r * (origin - mean_actual), r * step,
                                  std::move(masses));
}

/// P(X <= t) at a non-decreasing sequence of points t, in one merged sweep
/// (cdf() is a sweep of one point). Centered-bin convention: the mass at
/// grid point v is spread uniformly over [v - step/2, v + step/2], so a
/// symmetric pdf has cdf(mean) = 0.5. The bin edges are non-decreasing in
/// the bin index, so the bins fully below t only grow with t: their mass is
/// a running prefix, summed left to right, plus a linear share of the first
/// bin not fully below t.
class CdfSweep {
 public:
  explicit CdfSweep(const DiscretePdf& p) : p_(p), half_(0.5 * p.step()) {}

  double operator()(double t) {
    if (p_.is_point()) return t >= p_.origin() ? 1.0 : 0.0;
    while (next_ < p_.size() && t >= (p_.value_at(next_) - half_) + p_.step()) {
      prefix_ += p_.mass_at(next_++);
    }
    double acc = prefix_;
    if (next_ < p_.size()) {
      const double lo = p_.value_at(next_) - half_;
      if (t > lo) acc += p_.mass_at(next_) * (t - lo) / p_.step();
    }
    return std::min(acc, 1.0);
  }

 private:
  const DiscretePdf& p_;
  const double half_;
  std::size_t next_ = 0;  ///< first bin not fully below the last t
  double prefix_ = 0.0;   ///< mass of bins [0, next_)
};
}  // namespace

DiscretePdf DiscretePdf::point(double value) {
  DiscretePdf p;
  p.origin_ = value;
  p.step_ = 0.0;
  p.mass_ = {1.0};
  return p;
}

DiscretePdf DiscretePdf::normal(double mean, double sigma, std::size_t samples,
                                double span_sigmas) {
  if (!std::isfinite(mean) || !std::isfinite(sigma) || !std::isfinite(span_sigmas)) {
    throw std::invalid_argument(
        "DiscretePdf::normal: mean, sigma and span_sigmas must be finite");
  }
  if (sigma < 0.0) throw std::invalid_argument("DiscretePdf::normal: negative sigma");
  if (sigma == 0.0 || samples < 2) return point(mean);
  DiscretePdf p;
  const double lo = mean - span_sigmas * sigma;
  const double hi = mean + span_sigmas * sigma;
  p.origin_ = lo;
  p.step_ = (hi - lo) / static_cast<double>(samples - 1);
  p.mass_.resize(samples);
  // Exact bin masses: each grid point owns the CDF mass of the half-open
  // interval around it (tails folded into the end bins).
  double prev_cdf = 0.0;
  for (std::size_t i = 0; i < samples; ++i) {
    const double right_edge = (i + 1 < samples)
                                  ? (p.value_at(i) + 0.5 * p.step_ - mean) / sigma
                                  : std::numeric_limits<double>::infinity();
    const double c = (i + 1 < samples) ? util::normal_cdf(right_edge) : 1.0;
    p.mass_[i] = c - prev_cdf;
    prev_cdf = c;
  }
  // Tail folding biases the raw bin moments (noticeably so at coarse sample
  // counts); pin them to the requested values.
  return moment_matched(p.origin_, p.step_, std::move(p.mass_), mean, sigma * sigma);
}

DiscretePdf DiscretePdf::from_masses(double origin, double step, std::vector<double> masses) {
  if (!std::isfinite(origin)) throw std::invalid_argument("DiscretePdf: non-finite origin");
  if (!std::isfinite(step) || step < 0.0) {
    throw std::invalid_argument("DiscretePdf: step must be finite and >= 0");
  }
  normalize(masses);
  DiscretePdf p;
  p.origin_ = origin;
  p.step_ = masses.size() == 1 ? 0.0 : step;
  p.mass_ = std::move(masses);
  return p;
}

double DiscretePdf::mean() const { return mean_of(origin_, step_, mass_); }

double DiscretePdf::variance() const { return variance_of(*this, mean()); }

double DiscretePdf::stddev() const { return std::sqrt(variance()); }

double DiscretePdf::cdf(double x) const { return CdfSweep(*this)(x); }

double DiscretePdf::quantile(double q) const {
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

DiscretePdf DiscretePdf::shifted(double c) const {
  DiscretePdf p = *this;
  p.origin_ += c;
  return p;
}

DiscretePdf DiscretePdf::resampled(std::size_t samples) const {
  if (samples == 0) throw std::invalid_argument("resampled: zero samples");
  if (is_point() || samples == 1) return point(mean());
  if (samples == size()) return *this;
  const double step = (max_value() - origin_) / static_cast<double>(samples - 1);
  std::vector<double> bins(samples, 0.0);
  for (std::size_t i = 0; i < mass_.size(); ++i) {
    if (step == 0.0) {
      bins[0] += mass_[i];
    } else {
      deposit_at(bins, (value_at(i) - origin_) / step, mass_[i]);
    }
  }
  // Rebinning smears mass across neighbouring bins; restore the moments.
  const double m = mean();
  return moment_matched(origin_, step, std::move(bins), m, variance_of(*this, m));
}

DiscretePdf sum(const DiscretePdf& x, const DiscretePdf& y, std::size_t samples) {
  if (x.is_point()) return y.shifted(x.origin());
  if (y.is_point()) return x.shifted(y.origin());

  // Independence: moments of the result are exactly known — use them to pick
  // a tight grid before convolving.
  const double mx = x.mean();
  const double my = y.mean();
  const double var = variance_of(x, mx) + variance_of(y, my);
  const double mu = mx + my;
  const double sd = std::sqrt(var);
  const double lo = std::max(x.min_value() + y.min_value(), mu - kGridSpanSigmas * sd);
  const double hi = std::min(x.max_value() + y.max_value(), mu + kGridSpanSigmas * sd);
  if (hi <= lo) return DiscretePdf::point(mu);

  std::vector<double> bins(std::max<std::size_t>(samples, 2), 0.0);
  const double step = (hi - lo) / static_cast<double>(bins.size() - 1);
  // (hi - lo) underflowed: every atom lands in bin 0, which moment matching
  // collapses to point(mu).
  if (step == 0.0) return DiscretePdf::point(mu);

  // Convolution in (i, j) order. Per x atom, the positions of a block of y
  // atoms come first: a fixed-length loop with no stores into bins, which
  // the compiler can vectorize (IEEE division is correctly rounded, so the
  // vector lanes give the scalar bits). y.value_at(j) is rebuilt as
  // j0 + k, which is exact in double; the int lane index keeps the
  // conversion vectorizable. The deposits then follow in the original order.
  constexpr int kBlock = 16;
  std::array<double, kBlock> pos;
  for (std::size_t i = 0; i < x.size(); ++i) {
    const double xv = x.value_at(i);
    const double xm = x.mass_at(i);
    if (xm == 0.0) continue;
    for (std::size_t j0 = 0; j0 < y.size(); j0 += kBlock) {
      const double base = static_cast<double>(j0);
      for (int k = 0; k < kBlock; ++k) {
        pos[k] = ((xv + (y.origin() + y.step() * (base + k))) - lo) / step;
      }
      const std::size_t len = std::min<std::size_t>(kBlock, y.size() - j0);
      for (std::size_t k = 0; k < len; ++k) {
        const double m = xm * y.mass_at(j0 + k);
        if (m == 0.0) continue;
        deposit_at(bins, pos[k], m);
      }
    }
  }
  // Independence: exact result moments are known — pin them (after
  // from_masses' normalization, which the bits include).
  normalize(bins);
  DiscretePdf r = moment_matched(lo, step, std::move(bins), mu, var);
  if constexpr (debug::kParanoid) {
    debug::validate_pdf(r);
  }
  return r;
}

DiscretePdf max(const DiscretePdf& x, const DiscretePdf& y, std::size_t samples) {
  // Degenerate cases: max with a point clips the other distribution.
  const double lo_support = std::max(x.min_value(), y.min_value());
  const double hi_support = std::max(x.max_value(), y.max_value());
  if (hi_support <= lo_support) return DiscretePdf::point(hi_support);

  // Exact moments of max(X, Y) over the discrete input atoms — O(|x| * |y|),
  // used both to window the grid and to pin the result's moments.
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
  if (sd == 0.0) return DiscretePdf::point(e1);
  // One evaluation, on a grid laid tightly around the exact moments (same
  // trimming rationale as in sum()).
  const double lo = std::max(lo_support, e1 - kGridSpanSigmas * sd);
  const double hi = std::min(hi_support, e1 + kGridSpanSigmas * sd);
  if (hi <= lo) return DiscretePdf::point(e1);

  const std::size_t n = std::max<std::size_t>(samples, 2);
  std::vector<double> bins(n, 0.0);
  const double step = (hi - lo) / static_cast<double>(n - 1);
  // The grid points increase, so both input CDFs are single merged sweeps.
  CdfSweep fx(x);
  CdfSweep fy(y);
  double prev = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    const double t = lo + step * static_cast<double>(i);
    // Independence: F_max(t) = Fx(t) * Fy(t).
    const double c = std::min(1.0, fx(t) * fy(t));
    bins[i] = std::max(0.0, c - prev);
    prev = c;
  }
  // Guarantee total mass 1 even if the top grid point undershoots F = 1.
  bins[n - 1] += std::max(0.0, 1.0 - prev);
  normalize(bins);
  DiscretePdf r = moment_matched(lo, step, std::move(bins), e1, var);
  if constexpr (debug::kParanoid) {
    debug::validate_pdf(r);
  }
  return r;
}

}  // namespace statsizer::pdf
