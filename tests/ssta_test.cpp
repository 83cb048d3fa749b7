#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "liberty/synthetic.h"
#include "ssta/canonical.h"
#include "ssta/fullssta.h"
#include "ssta/monte_carlo.h"
#include "techmap/mapper.h"
#include "timing/analyzer.h"
#include "util/numeric.h"

namespace statsizer::ssta {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n, variation::VariationParams vp = {}) : nl(std::move(n)), var(vp) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
  }
};

Netlist inverter_chain(unsigned length) {
  Netlist nl("chain");
  GateId prev = nl.add_input("a");
  for (unsigned i = 0; i < length; ++i) prev = nl.add_gate(netlist::GateFunc::kInv, {prev});
  nl.add_output("y", prev);
  return nl;
}

// ---------------------------------------------------------------------------
// FULLSSTA
// ---------------------------------------------------------------------------

TEST(FullSsta, ChainMomentsAreAnalytic) {
  // No max anywhere: mean = sum of arc delays, var = sum of arc variances.
  Bench b(inverter_chain(20));
  const FullSstaResult r = run_fullssta(*b.ctx);
  double mean = 0.0;
  double var = 0.0;
  for (const GateId id : b.ctx->topo_order()) {
    if (!b.ctx->has_cell(id)) continue;
    mean += b.ctx->arc_delay_ps(id, 0);
    var += b.ctx->arc_sigma_ps(id, 0) * b.ctx->arc_sigma_ps(id, 0);
  }
  EXPECT_NEAR(r.mean_ps, mean, 1e-6 * mean);
  EXPECT_NEAR(r.sigma_ps, std::sqrt(var), 0.01 * std::sqrt(var));
}

TEST(FullSsta, RejectsInvalidOptions) {
  // Before the check, samples_per_pdf 0/1 silently returned sigma = 0 and a
  // non-positive span gave a point mass or a misleading "negative mass".
  Bench b(inverter_chain(5));
  const auto expect_rejected = [&](const FullSstaOptions& o, const std::string& field) {
    try {
      (void)run_fullssta(*b.ctx, o);
      ADD_FAILURE() << "run_fullssta accepted an invalid " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
    timing::AnalyzerOptions ao;
    ao.fullssta = o;
    try {
      (void)timing::make_analyzer("fullssta", ao);
      ADD_FAILURE() << "the fullssta analyzer accepted an invalid " << field;
    } catch (const std::invalid_argument& e) {
      EXPECT_NE(std::string(e.what()).find(field), std::string::npos) << e.what();
    }
  };
  for (const std::size_t samples : {0u, 1u}) {
    FullSstaOptions o;
    o.samples_per_pdf = samples;
    expect_rejected(o, "samples_per_pdf");
  }
  for (const double span : {0.0, -2.0, std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()}) {
    FullSstaOptions o;
    o.span_sigmas = span;
    expect_rejected(o, "span_sigmas");
  }
  FullSstaOptions smallest;
  smallest.samples_per_pdf = 2;
  smallest.span_sigmas = 0.5;
  EXPECT_GT(run_fullssta(*b.ctx, smallest).sigma_ps, 0.0);
}

TEST(FullSsta, NodeMomentsMonotoneAlongChain) {
  Bench b(inverter_chain(10));
  const FullSstaResult r = run_fullssta(*b.ctx);
  double prev = -1.0;
  for (const GateId id : b.ctx->topo_order()) {
    if (!b.ctx->has_cell(id)) continue;
    EXPECT_GT(r.node[id].mean_ps, prev);
    prev = r.node[id].mean_ps;
  }
}

TEST(FullSsta, MatchesMonteCarloOnAdder) {
  Bench b(circuits::make_cla_adder(8));
  const FullSstaResult full = run_fullssta(*b.ctx);
  MonteCarloOptions mc_opt;
  mc_opt.samples = 20000;
  const MonteCarloResult mc = run_monte_carlo(*b.ctx, mc_opt);
  // The independence assumption at reconvergent merges cuts both ways:
  // E[max] is *over*-estimated a little (shared subpaths correlate branch
  // arrivals) and sigma is *under*-estimated (correlated branches make the
  // max fatter than independence predicts). Both effects stay bounded.
  EXPECT_NEAR(full.mean_ps, mc.mean_ps, 0.06 * mc.mean_ps);
  EXPECT_GE(full.mean_ps, mc.mean_ps * 0.98);
  EXPECT_LT(std::abs(full.sigma_ps - mc.sigma_ps), 0.45 * mc.sigma_ps);
  EXPECT_LE(full.sigma_ps, mc.sigma_ps * 1.1);
}

TEST(FullSsta, SampleCountStability) {
  Bench b(circuits::make_cla_adder(8));
  FullSstaOptions o10;
  o10.samples_per_pdf = 10;
  FullSstaOptions o15;
  o15.samples_per_pdf = 15;
  FullSstaOptions o25;
  o25.samples_per_pdf = 25;
  const auto r10 = run_fullssta(*b.ctx, o10);
  const auto r15 = run_fullssta(*b.ctx, o15);
  const auto r25 = run_fullssta(*b.ctx, o25);
  EXPECT_NEAR(r10.mean_ps, r25.mean_ps, 0.01 * r25.mean_ps);
  EXPECT_NEAR(r15.mean_ps, r25.mean_ps, 0.01 * r25.mean_ps);
  EXPECT_NEAR(r10.sigma_ps, r25.sigma_ps, 0.10 * r25.sigma_ps);
  EXPECT_NEAR(r15.sigma_ps, r25.sigma_ps, 0.06 * r25.sigma_ps);
}

TEST(FullSsta, OutputPdfIsADistribution) {
  Bench b(circuits::make_ripple_adder(4));
  const FullSstaResult r = run_fullssta(*b.ctx);
  const auto& pdf = r.output_pdf;
  double total = 0.0;
  for (std::size_t i = 0; i < pdf.size(); ++i) total += pdf.mass_at(i);
  EXPECT_NEAR(total, 1.0, 1e-9);
  EXPECT_NEAR(pdf.mean(), r.mean_ps, 1e-9);
  EXPECT_NEAR(pdf.stddev(), r.sigma_ps, 1e-9);
  // Median is near the mean for these near-normal outputs.
  EXPECT_NEAR(pdf.quantile(0.5), r.mean_ps, 2.0 * r.sigma_ps);
}

// ---------------------------------------------------------------------------
// Monte Carlo
// ---------------------------------------------------------------------------

TEST(MonteCarlo, DeterministicForSeed) {
  Bench b(circuits::make_ripple_adder(4));
  MonteCarloOptions opt;
  opt.samples = 500;
  opt.seed = 77;
  const auto r1 = run_monte_carlo(*b.ctx, opt);
  const auto r2 = run_monte_carlo(*b.ctx, opt);
  EXPECT_DOUBLE_EQ(r1.mean_ps, r2.mean_ps);
  EXPECT_DOUBLE_EQ(r1.sigma_ps, r2.sigma_ps);
  EXPECT_EQ(r1.circuit_samples, r2.circuit_samples);
}

TEST(MonteCarlo, PerNodeStats) {
  Bench b(inverter_chain(5));
  MonteCarloOptions opt;
  opt.samples = 4000;
  opt.per_node_stats = true;
  const auto r = run_monte_carlo(*b.ctx, opt);
  ASSERT_EQ(r.node.size(), b.nl.node_count());
  // The chain's last gate matches the circuit moments.
  const GateId last = b.nl.outputs()[0].driver;
  EXPECT_NEAR(r.node[last].mean_ps, r.mean_ps, 1e-9);
  EXPECT_NEAR(r.node[last].sigma_ps, r.sigma_ps, 1e-9);
}

TEST(MonteCarlo, SampleVectorQuantiles) {
  Bench b(circuits::make_ripple_adder(4));
  MonteCarloOptions opt;
  opt.samples = 8000;
  const auto r = run_monte_carlo(*b.ctx, opt);
  ASSERT_EQ(r.circuit_samples.size(), opt.samples);
  const double q50 = util::quantile_of(r.circuit_samples, 0.5);
  const double q99 = util::quantile_of(r.circuit_samples, 0.99);
  EXPECT_GT(q99, q50);
  EXPECT_NEAR(q50, r.mean_ps, r.sigma_ps);
}

// ---------------------------------------------------------------------------
// canonical (correlation-aware) SSTA
// ---------------------------------------------------------------------------

TEST(Canonical, FormAlgebra) {
  const CanonicalForm a{10.0, 2.0, 1.0};
  const CanonicalForm b{5.0, 1.0, 2.0};
  const CanonicalForm s = canonical_sum(a, b);
  EXPECT_DOUBLE_EQ(s.nominal_ps, 15.0);
  EXPECT_DOUBLE_EQ(s.global_coeff, 3.0);
  EXPECT_NEAR(s.independent_ps, std::sqrt(5.0), 1e-12);
  EXPECT_NEAR(s.sigma_ps(), std::sqrt(9.0 + 5.0), 1e-12);
}

TEST(Canonical, MaxOfDominant) {
  const CanonicalForm a{100.0, 2.0, 1.0};
  const CanonicalForm b{10.0, 1.0, 1.0};
  const CanonicalForm m = canonical_max(a, b);
  EXPECT_NEAR(m.nominal_ps, 100.0, 0.01);
  EXPECT_NEAR(m.global_coeff, 2.0, 0.01);
}

TEST(Canonical, IndependentCaseMatchesFullSsta) {
  // With global_fraction = 0 the canonical engine degenerates to
  // independence; its moments should track FULLSSTA closely.
  Bench b(circuits::make_cla_adder(8));
  const CanonicalResult can = run_canonical(*b.ctx);
  const FullSstaResult full = run_fullssta(*b.ctx);
  EXPECT_NEAR(can.mean_ps, full.mean_ps, 0.02 * full.mean_ps);
  EXPECT_NEAR(can.sigma_ps, full.sigma_ps, 0.30 * full.sigma_ps);
}

TEST(Canonical, TracksCorrelatedMonteCarlo) {
  // With a strong global component, independence-based engines underestimate
  // sigma badly; the canonical engine must not.
  variation::VariationParams vp;
  vp.global_fraction = 0.7;
  Bench b(circuits::make_cla_adder(8), vp);

  const CanonicalResult can = run_canonical(*b.ctx);
  MonteCarloOptions mc_opt;
  mc_opt.samples = 20000;
  const MonteCarloResult mc = run_monte_carlo(*b.ctx, mc_opt);
  const FullSstaResult independent = run_fullssta(*b.ctx);

  // Tolerance = the engine's systematic gap plus sampling noise: against a
  // 400k-sample reference the canonical mean sits ~2.8% above MC on this
  // workload (truncated sampling vs Gaussian algebra), and at 20k samples
  // the MC mean estimate itself moves by up to ~1.2% (3 standard errors;
  // sigma/mu is ~0.55 here).
  EXPECT_NEAR(can.mean_ps, mc.mean_ps, 0.04 * mc.mean_ps);
  EXPECT_NEAR(can.sigma_ps, mc.sigma_ps, 0.25 * mc.sigma_ps);
  // And it must be closer to MC sigma than the independent engine is.
  EXPECT_LT(std::abs(can.sigma_ps - mc.sigma_ps),
            std::abs(independent.sigma_ps - mc.sigma_ps));
}

TEST(Canonical, GlobalCoeffGrowsAlongPath) {
  variation::VariationParams vp;
  vp.global_fraction = 0.5;
  Bench b(inverter_chain(10), vp);
  const CanonicalResult r = run_canonical(*b.ctx);
  double prev = -1.0;
  for (const GateId id : b.ctx->topo_order()) {
    if (!b.ctx->has_cell(id)) continue;
    EXPECT_GT(r.node[id].global_coeff, prev);
    prev = r.node[id].global_coeff;
  }
}

}  // namespace
}  // namespace statsizer::ssta
