// Bitwise cross-check of the discrete-PDF kernel against its frozen
// reference (pdf_reference.h). Every FULLSSTA result, golden sigma and sizer
// decision rests on these bits, so the comparison is exact: origin, step and
// every mass must be the same double, not merely close. Seeded fuzzing covers
// sample counts 2-80 (past the sum kernel's position block), point masses and
// sigma == 0, zero and underflowing masses, zero-step grids, disjoint
// supports, dominated maxima, and deep sum/max chains fed back into
// themselves.
#include <cmath>
#include <cstddef>
#include <vector>

#include <gtest/gtest.h>

#include "pdf/discrete_pdf.h"
#include "pdf_reference.h"
#include "util/rng.h"

namespace statsizer::pdf {
namespace {

using reference::RefPdf;

/// Library and reference pdf built from the same inputs, carried side by side.
struct Pair {
  DiscretePdf lib;
  RefPdf ref;
};

::testing::AssertionResult bitwise_equal(const DiscretePdf& lib, const RefPdf& ref) {
  if (lib.origin() != ref.origin() || std::signbit(lib.origin()) != std::signbit(ref.origin())) {
    return ::testing::AssertionFailure()
           << "origin " << lib.origin() << " != reference " << ref.origin();
  }
  if (lib.step() != ref.step()) {
    return ::testing::AssertionFailure()
           << "step " << lib.step() << " != reference " << ref.step();
  }
  if (lib.size() != ref.size()) {
    return ::testing::AssertionFailure()
           << "size " << lib.size() << " != reference " << ref.size();
  }
  for (std::size_t i = 0; i < lib.size(); ++i) {
    if (lib.mass_at(i) != ref.mass_at(i)) {
      return ::testing::AssertionFailure() << "mass[" << i << "] " << lib.mass_at(i)
                                           << " != reference " << ref.mass_at(i);
    }
  }
  return ::testing::AssertionSuccess();
}

/// Same-bits comparison for scalars (NaN never occurs for valid pdfs).
::testing::AssertionResult same_double(double a, double b) {
  if (a == b && std::signbit(a) == std::signbit(b)) return ::testing::AssertionSuccess();
  return ::testing::AssertionFailure() << a << " != reference " << b;
}

/// Draws one input pdf: a discretized normal (sometimes sigma == 0 or one
/// sample, i.e. a point), a raw mass vector with zero and tiny entries, or a
/// point mass. Both kernels are built from it, so every later comparison
/// starts from identical inputs.
Pair random_pdf(util::Rng& rng, double center) {
  switch (rng.index(5)) {
    case 0: {
      const double v = center + rng.uniform(-50.0, 50.0);
      return {DiscretePdf::point(v), reference::point(v)};
    }
    case 1: {
      // Raw masses: zeros, tiny masses whose products underflow to 0, and a
      // non-unit total so both normalizations do work.
      const std::size_t n = 1 + rng.index(40);
      std::vector<double> m(n);
      for (double& v : m) {
        switch (rng.index(4)) {
          case 0: v = 0.0; break;
          case 1: v = 1e-170 * rng.uniform(); break;
          default: v = rng.uniform(0.0, 3.0);
        }
      }
      m[rng.index(n)] += 1.0;  // never all zero
      const double origin = center + rng.uniform(-100.0, 100.0);
      // A zero step with several masses is a legal degenerate grid.
      const double step = rng.flip(0.1) ? 0.0 : rng.uniform(0.01, 5.0);
      return {DiscretePdf::from_masses(origin, step, m), reference::from_masses(origin, step, m)};
    }
    default: {
      const std::size_t samples = 1 + rng.index(80);
      const double mean = center + rng.uniform(-100.0, 100.0);
      const double sigma = rng.flip(0.1) ? 0.0 : rng.uniform(0.01, 30.0);
      const double span = rng.uniform(1.0, 6.0);
      return {DiscretePdf::normal(mean, sigma, samples, span),
              reference::normal(mean, sigma, samples, span)};
    }
  }
}

std::size_t random_samples(util::Rng& rng) { return 2 + rng.index(79); }  // 2..80

TEST(PdfKernelCrossCheck, NormalMatchesReference) {
  util::Rng rng(0x5eed01);
  for (int it = 0; it < 2000; ++it) {
    const std::size_t samples = rng.index(82);  // 0..81: points, 2..80 grids
    const double mean = rng.uniform(-1e3, 1e3);
    const double sigma = rng.flip(0.1) ? 0.0 : rng.uniform(1e-3, 100.0);
    const double span = rng.uniform(0.5, 8.0);
    ASSERT_TRUE(bitwise_equal(DiscretePdf::normal(mean, sigma, samples, span),
                              reference::normal(mean, sigma, samples, span)))
        << "normal(" << mean << ", " << sigma << ", " << samples << ", " << span << ")";
  }
}

TEST(PdfKernelCrossCheck, MomentsCdfQuantileResampledMatchReference) {
  util::Rng rng(0x5eed02);
  for (int it = 0; it < 1000; ++it) {
    const Pair p = random_pdf(rng, 0.0);
    ASSERT_TRUE(bitwise_equal(p.lib, p.ref));
    ASSERT_TRUE(same_double(p.lib.mean(), p.ref.mean()));
    ASSERT_TRUE(same_double(p.lib.variance(), p.ref.variance()));
    for (int k = 0; k < 8; ++k) {
      const double x = rng.uniform(p.ref.min_value() - 10.0, p.ref.max_value() + 10.0);
      ASSERT_TRUE(same_double(p.lib.cdf(x), p.ref.cdf(x))) << "cdf(" << x << ")";
      const double q = rng.uniform();
      ASSERT_TRUE(same_double(p.lib.quantile(q), p.ref.quantile(q))) << "quantile(" << q << ")";
    }
    const std::size_t samples = 1 + rng.index(80);
    ASSERT_TRUE(bitwise_equal(p.lib.resampled(samples), reference::resampled(p.ref, samples)))
        << "resampled(" << samples << ")";
  }
}

TEST(PdfKernelCrossCheck, SumAndMaxMatchReference) {
  util::Rng rng(0x5eed03);
  for (int it = 0; it < 3000; ++it) {
    // Offsets of the second input: overlapping, far apart (disjoint
    // supports, one input dominating the max) or on the same center.
    const double offset = rng.flip(0.3) ? rng.uniform(-5e3, 5e3) : rng.uniform(-40.0, 40.0);
    const Pair a = random_pdf(rng, 0.0);
    const Pair b = random_pdf(rng, offset);
    const std::size_t samples = random_samples(rng);
    ASSERT_TRUE(bitwise_equal(sum(a.lib, b.lib, samples), reference::sum(a.ref, b.ref, samples)))
        << "sum, iteration " << it << ", samples " << samples;
    ASSERT_TRUE(bitwise_equal(max(a.lib, b.lib, samples), reference::max(a.ref, b.ref, samples)))
        << "max, iteration " << it << ", samples " << samples;
    ASSERT_TRUE(bitwise_equal(max(b.lib, a.lib, samples), reference::max(b.ref, a.ref, samples)))
        << "max (swapped), iteration " << it << ", samples " << samples;
  }
}

TEST(PdfKernelCrossCheck, DominatedAndDisjointMax) {
  for (const std::size_t samples : {2u, 13u, 17u, 41u, 80u}) {
    const DiscretePdf hi = DiscretePdf::normal(1000.0, 5.0, samples);
    const DiscretePdf lo = DiscretePdf::normal(10.0, 5.0, samples);
    const RefPdf rhi = reference::normal(1000.0, 5.0, samples);
    const RefPdf rlo = reference::normal(10.0, 5.0, samples);
    EXPECT_TRUE(bitwise_equal(max(hi, lo, samples), reference::max(rhi, rlo, samples)));
    EXPECT_TRUE(bitwise_equal(max(lo, hi, samples), reference::max(rlo, rhi, samples)));
    EXPECT_TRUE(bitwise_equal(sum(hi, lo, samples), reference::sum(rhi, rlo, samples)));
    // Barely overlapping supports and a point inside / beyond the support.
    const DiscretePdf edge = DiscretePdf::normal(1040.0, 5.0, samples);
    const RefPdf redge = reference::normal(1040.0, 5.0, samples);
    EXPECT_TRUE(bitwise_equal(max(hi, edge, samples), reference::max(rhi, redge, samples)));
    for (const double v : {990.0, 1000.0, 1030.0}) {
      EXPECT_TRUE(bitwise_equal(max(hi, DiscretePdf::point(v), samples),
                                reference::max(rhi, reference::point(v), samples)))
          << "point " << v;
    }
  }
}

TEST(PdfKernelCrossCheck, DeepChainsMatchReference) {
  // A FULLSSTA-like path: each stage sums a gate delay and maxes with a side
  // path, feeding its own output back in, so any bit difference would
  // compound and surface.
  util::Rng rng(0x5eed04);
  for (const std::size_t samples : {2u, 7u, 13u, 16u, 17u, 33u, 80u}) {
    DiscretePdf acc = DiscretePdf::point(0.0);
    RefPdf racc = reference::point(0.0);
    DiscretePdf side = DiscretePdf::point(0.0);
    RefPdf rside = reference::point(0.0);
    for (int stage = 0; stage < 120; ++stage) {
      const double d = rng.uniform(5.0, 40.0);
      const double s = rng.flip(0.05) ? 0.0 : rng.uniform(0.2, 6.0);
      acc = sum(acc, DiscretePdf::normal(d, s, samples), samples);
      racc = reference::sum(racc, reference::normal(d, s, samples), samples);
      side = sum(side, DiscretePdf::normal(d * 0.95, s * 1.3, samples), samples);
      rside = reference::sum(rside, reference::normal(d * 0.95, s * 1.3, samples), samples);
      if (stage % 3 == 2) {
        acc = max(acc, side, samples);
        racc = reference::max(racc, rside, samples);
      }
      ASSERT_TRUE(bitwise_equal(acc, racc)) << "samples " << samples << ", stage " << stage;
      ASSERT_TRUE(bitwise_equal(side, rside)) << "samples " << samples << ", stage " << stage;
    }
  }
}

}  // namespace
}  // namespace statsizer::pdf
