// Conformance suite for the timing::Analyzer engine API, driven by
// analyzer_names(). Every built-in engine runs through the same contract
// checks:
//   * analyze() produces a finite summary consistent with its capabilities;
//   * propose()/score()/rollback() leaves the netlist, the TimingContext,
//     and the analyzer base bitwise-identical to the pre-propose state;
//   * a committed speculation's base equals a from-scratch analyze() of the
//     resized netlist bitwise (deterministic engines);
//   * commits invalidate sibling speculations (epoch guard).
// Plus the cone-engine guarantees (FULLSSTA, FASSTA, DSTA) the parallel
// rescue confirmations and area recovery rest on: what-if scores (single and
// multi-resize) bitwise-equal a from-scratch analyze() of a resized twin on
// the cla_adder and parity-fabric circuits from sizer_parallel_test,
// concurrent speculative scoring is thread-count-invariant, and a committed
// overlay equals the from-scratch run (arrival moments, output pdf, mean,
// sigma, snapshot).
#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "core/flow.h"
#include "liberty/synthetic.h"
#include "opt/initial_sizing.h"
#include "opt/sizer_statistical.h"
#include "ssta/fullssta.h"
#include "ssta/isle.h"
#include "techmap/mapper.h"
#include "timing/analyzer.h"
#include "util/thread_pool.h"

namespace statsizer::timing {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n) : nl(std::move(n)) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
    (void)opt::apply_initial_sizing(*ctx);
  }
};

/// Wide balanced XOR fabric (mirrors sizer_parallel_test): reconvergence-free
/// breadth, thousands of near-identical paths.
Netlist parity_fabric(unsigned width) {
  circuits::Builder b("parity" + std::to_string(width));
  const auto xs = b.bus("x", width);
  b.output("p", b.xor_tree(xs));
  return b.take();
}

/// Every observable of the timing snapshot, bit-for-bit.
struct Fingerprint {
  std::vector<std::uint16_t> sizes;
  std::vector<double> loads;
  std::vector<double> slews;
  std::vector<double> arc_delays;
  std::vector<double> arc_sigmas;
  double area = 0.0;

  friend bool operator==(const Fingerprint&, const Fingerprint&) = default;
};

Fingerprint fingerprint(const sta::TimingContext& ctx) {
  Fingerprint f;
  const auto& nl = ctx.netlist();
  f.sizes = nl.sizes();
  f.area = ctx.area_um2();
  for (GateId g = 0; g < nl.node_count(); ++g) {
    f.loads.push_back(ctx.load_ff(g));
    f.slews.push_back(ctx.slew_ps(g));
    for (std::size_t i = 0; i < nl.gate(g).fanins.size(); ++i) {
      f.arc_delays.push_back(ctx.arc_delay_ps(g, i));
      f.arc_sigmas.push_back(ctx.arc_sigma_ps(g, i));
    }
  }
  return f;
}

void expect_summaries_equal(const Summary& a, const Summary& b) {
  EXPECT_EQ(a.mean_ps, b.mean_ps);
  EXPECT_EQ(a.sigma_ps, b.sigma_ps);
  ASSERT_EQ(a.node.size(), b.node.size());
  for (std::size_t i = 0; i < a.node.size(); ++i) {
    EXPECT_EQ(a.node[i].mean_ps, b.node[i].mean_ps) << "node " << i;
    EXPECT_EQ(a.node[i].sigma_ps, b.node[i].sigma_ps) << "node " << i;
  }
  ASSERT_EQ(a.output_pdf.size(), b.output_pdf.size());
  EXPECT_EQ(a.output_pdf.origin(), b.output_pdf.origin());
  EXPECT_EQ(a.output_pdf.step(), b.output_pdf.step());
  EXPECT_EQ(a.output_pdf.masses(), b.output_pdf.masses());
}

/// A mapped gate with more than one available size, plus a target size that
/// differs from the current one.
struct Candidate {
  GateId gate = netlist::kNoGate;
  std::uint16_t size = 0;
};

std::vector<Candidate> some_candidates(const sta::TimingContext& ctx, std::size_t limit) {
  std::vector<Candidate> out;
  const auto& nl = ctx.netlist();
  for (GateId g = 0; g < nl.node_count() && out.size() < limit; ++g) {
    if (!ctx.has_cell(g)) continue;
    const auto& group = ctx.library().group(nl.gate(g).cell_group);
    if (group.size_count() < 2) continue;
    const std::uint16_t current = nl.gate(g).size_index;
    out.push_back(Candidate{g, static_cast<std::uint16_t>((current + 1) % group.size_count())});
  }
  return out;
}

class AnalyzerConformance : public ::testing::TestWithParam<std::string> {};

TEST_P(AnalyzerConformance, AnalyzeProducesCapabilityConsistentSummary) {
  Bench b(circuits::make_cla_adder(4));
  AnalyzerOptions opt;
  opt.monte_carlo.samples = 400;  // keep the sampling engines test-sized
  opt.isle.samples = 400;
  auto an = make_analyzer(GetParam(), opt);
  EXPECT_EQ(an->name(), GetParam());
  EXPECT_THROW((void)an->current(), std::logic_error);
  EXPECT_THROW((void)an->propose(0, 0), std::logic_error);  // before analyze()

  const Summary& s = an->analyze(*b.ctx);
  EXPECT_GT(s.mean_ps, 0.0);
  EXPECT_GE(s.sigma_ps, 0.0);
  const Capabilities caps = an->capabilities();
  if (caps.per_node_moments) {
    EXPECT_EQ(s.node.size(), b.nl.node_count());
  }
  if (caps.output_pdf) {
    EXPECT_GT(s.output_pdf.size(), 1u);
    EXPECT_EQ(s.mean_ps, s.output_pdf.mean());
  }
}

TEST_P(AnalyzerConformance, RollbackRestoresBitwiseIdenticalState) {
  Bench b(circuits::make_cla_adder(4));
  AnalyzerOptions opt;
  opt.monte_carlo.samples = 400;
  opt.isle.samples = 400;
  auto an = make_analyzer(GetParam(), opt);
  if (!an->capabilities().what_if) GTEST_SKIP() << "engine has no what-if";

  (void)an->analyze(*b.ctx);
  const Summary before_summary = an->current();
  const Fingerprint before = fingerprint(*b.ctx);

  const auto cands = some_candidates(*b.ctx, 3);
  ASSERT_FALSE(cands.empty());
  for (const Candidate& c : cands) {
    auto spec = an->propose(c.gate, c.size);
    const Summary& scored = spec->score();
    EXPECT_GT(scored.mean_ps, 0.0);
    spec->rollback();
    EXPECT_EQ(fingerprint(*b.ctx), before) << "rollback leaked state";
    expect_summaries_equal(an->current(), before_summary);
  }
  // Destroying an unresolved speculation is an implicit rollback.
  { auto spec = an->propose(cands[0].gate, cands[0].size); }
  EXPECT_EQ(fingerprint(*b.ctx), before);
}

TEST_P(AnalyzerConformance, CommittedSpeculationEqualsFromScratchAnalysis) {
  AnalyzerOptions opt;
  opt.monte_carlo.samples = 400;
  opt.isle.samples = 400;
  auto an = make_analyzer(GetParam(), opt);
  if (!an->capabilities().what_if) GTEST_SKIP() << "engine has no what-if";

  Bench b(circuits::make_cla_adder(4));
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 1);
  ASSERT_FALSE(cands.empty());

  auto spec = an->propose(cands[0].gate, cands[0].size);
  const Summary scored = spec->score();
  spec->commit();
  EXPECT_EQ(b.nl.gate(cands[0].gate).size_index, cands[0].size);
  const Summary committed = an->current();

  // From scratch: an identical twin bench resized up front.
  Bench twin(circuits::make_cla_adder(4));
  twin.nl.gate(cands[0].gate).size_index = cands[0].size;
  twin.ctx->update();
  auto fresh = make_analyzer(GetParam(), opt);
  const Summary& reference = fresh->analyze(*twin.ctx);

  expect_summaries_equal(committed, reference);
  EXPECT_EQ(fingerprint(*b.ctx), fingerprint(*twin.ctx));
  if (an->capabilities().exact_speculation) {
    EXPECT_EQ(scored.mean_ps, reference.mean_ps);
    EXPECT_EQ(scored.sigma_ps, reference.sigma_ps);
  }
}

TEST_P(AnalyzerConformance, CommitInvalidatesSiblingSpeculations) {
  AnalyzerOptions opt;
  opt.monte_carlo.samples = 400;
  opt.isle.samples = 400;
  auto an = make_analyzer(GetParam(), opt);
  if (!an->capabilities().what_if) GTEST_SKIP() << "engine has no what-if";

  Bench b(circuits::make_cla_adder(4));
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 2);
  ASSERT_GE(cands.size(), 2u);

  auto first = an->propose(cands[0].gate, cands[0].size);
  auto second = an->propose(cands[1].gate, cands[1].size);
  auto third = an->propose(cands[1].gate, cands[1].size);
  const Summary second_scored = second->score();  // cached pre-invalidation
  first->commit();
  EXPECT_NO_THROW(first->commit());  // committing twice is a uniform no-op
  EXPECT_EQ(second->score().mean_ps, second_scored.mean_ps);  // cache readable
  EXPECT_THROW((void)third->score(), std::logic_error);       // stale base
  EXPECT_THROW(third->commit(), std::logic_error);
  third->rollback();  // rollback of an invalidated speculation is a no-op
}

TEST_P(AnalyzerConformance, ProposeValidatesArguments) {
  AnalyzerOptions opt;
  opt.monte_carlo.samples = 400;
  opt.isle.samples = 400;
  auto an = make_analyzer(GetParam(), opt);
  if (!an->capabilities().what_if) GTEST_SKIP() << "engine has no what-if";

  Bench b(circuits::make_cla_adder(4));
  (void)an->analyze(*b.ctx);
  const auto cands = some_candidates(*b.ctx, 1);
  ASSERT_FALSE(cands.empty());
  const GateId g = cands[0].gate;
  const auto& group = b.lib.group(b.nl.gate(g).cell_group);

  EXPECT_THROW((void)an->propose(g, static_cast<std::uint16_t>(group.size_count())),
               std::invalid_argument);
  EXPECT_THROW((void)an->propose_resizes({}), std::invalid_argument);
  const Resize dup[] = {{g, 0}, {g, 1}};
  EXPECT_THROW((void)an->propose_resizes(dup), std::invalid_argument);
  // Unmapped node (a primary input).
  ASSERT_FALSE(b.nl.inputs().empty());
  EXPECT_THROW((void)an->propose(b.nl.inputs()[0], 0), std::invalid_argument);
}

INSTANTIATE_TEST_SUITE_P(Registry, AnalyzerConformance,
                         ::testing::ValuesIn(analyzer_names()),
                         [](const auto& info) { return info.param; });

TEST(AnalyzerRegistry, KnowsTheBuiltins) {
  const auto names = analyzer_names();
  for (const char* expected : {"canonical", "dsta", "fassta", "fullssta", "isle", "mc"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), expected), names.end()) << expected;
  }
  EXPECT_THROW((void)make_analyzer("no-such-engine"), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Cone what-if vs full re-run: the bitwise-equivalence the parallel rescue
// confirmations and area recovery rest on, for all three cone engines
// (FULLSSTA, FASSTA, DSTA), exercised on the two circuits from
// sizer_parallel_test (a reconvergent carry chain and a balanced fabric).
// The reference is always a fresh analyzer's analyze() of a resized twin.
// ---------------------------------------------------------------------------

/// The cone engines. The parameter indexes engine x circuit: engine
/// kConeEngines[p / 2] on circuit p % 2 (0 = cla_adder, 1 = parity_fabric).
constexpr const char* kConeEngines[] = {"fullssta", "fassta", "dsta"};

class FullSstaWhatIf : public ::testing::TestWithParam<int> {
 protected:
  static std::string engine() { return kConeEngines[GetParam() / 2]; }
  static Netlist circuit() {
    return GetParam() % 2 == 0 ? circuits::make_cla_adder(8) : parity_fabric(16);
  }

  /// From-scratch reference: an identical twin bench at @p sizes with
  /// @p resizes applied, analyzed by a fresh analyzer of engine().
  static Summary analyze_twin(const std::vector<std::uint16_t>& sizes,
                              std::span<const Resize> resizes, Fingerprint* snapshot = nullptr) {
    Bench twin(circuit());
    twin.nl.set_sizes(sizes);
    for (const Resize& r : resizes) twin.nl.gate(r.gate).size_index = r.size;
    twin.ctx->update();
    if (snapshot != nullptr) *snapshot = fingerprint(*twin.ctx);
    return make_analyzer(engine())->analyze(*twin.ctx);
  }
};

TEST_P(FullSstaWhatIf, ScoreMatchesFromScratchRerunBitwise) {
  Bench b(circuit());
  auto an = make_analyzer(engine());
  (void)an->analyze(*b.ctx);

  for (const Candidate& c : some_candidates(*b.ctx, 24)) {
    auto spec = an->propose(c.gate, c.size);
    const Summary& scored = spec->score();
    const Resize r{c.gate, c.size};
    const Summary reference = analyze_twin(b.nl.sizes(), std::span<const Resize>(&r, 1));
    EXPECT_EQ(scored.mean_ps, reference.mean_ps) << "gate " << c.gate;
    EXPECT_EQ(scored.sigma_ps, reference.sigma_ps) << "gate " << c.gate;
    spec->rollback();
  }
}

TEST_P(FullSstaWhatIf, MultiResizeScoreMatchesFromScratchRerunBitwise) {
  Bench b(circuit());
  auto an = make_analyzer(engine());
  (void)an->analyze(*b.ctx);

  const auto cands = some_candidates(*b.ctx, 6);
  ASSERT_GE(cands.size(), 2u);
  std::vector<Resize> resizes;
  for (const Candidate& c : cands) resizes.push_back(Resize{c.gate, c.size});

  auto spec = an->propose_resizes(resizes);
  const Summary& scored = spec->score();
  const Summary reference = analyze_twin(b.nl.sizes(), resizes);
  EXPECT_EQ(scored.mean_ps, reference.mean_ps);
  EXPECT_EQ(scored.sigma_ps, reference.sigma_ps);
}

TEST_P(FullSstaWhatIf, CommittedOverlayEqualsFromScratchRun) {
  Bench b(circuit());
  auto an = make_analyzer(engine());
  (void)an->analyze(*b.ctx);

  // Commit a chain of speculations (the rescue pattern: serial commits in
  // gain order), then compare the merged base — arrival moments, output
  // pdf, mean, sigma — and the patched snapshot against a from-scratch run.
  const auto cands = some_candidates(*b.ctx, 4);
  for (const Candidate& c : cands) {
    auto spec = an->propose(c.gate, c.size);
    (void)spec->score();
    spec->commit();
  }
  Fingerprint twin_snapshot;
  const Summary reference = analyze_twin(b.nl.sizes(), {}, &twin_snapshot);
  expect_summaries_equal(an->current(), reference);
  EXPECT_EQ(fingerprint(*b.ctx), twin_snapshot);
}

TEST_P(FullSstaWhatIf, ConcurrentScoringIsThreadCountInvariant) {
  Bench b(circuit());
  auto an = make_analyzer(engine());
  (void)an->analyze(*b.ctx);
  ASSERT_TRUE(an->capabilities().concurrent_speculations);

  const auto cands = some_candidates(*b.ctx, 32);
  const auto score_all = [&](std::size_t threads) {
    std::vector<std::unique_ptr<Speculation>> specs(cands.size());
    for (std::size_t i = 0; i < cands.size(); ++i) {
      specs[i] = an->propose(cands[i].gate, cands[i].size);
    }
    std::vector<double> means(cands.size());
    std::vector<double> sigmas(cands.size());
    util::parallel_for(cands.size(), 1, threads,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         for (std::size_t i = begin; i < end; ++i) {
                           const Summary& s = specs[i]->score();
                           means[i] = s.mean_ps;
                           sigmas[i] = s.sigma_ps;
                         }
                       });
    return std::pair(means, sigmas);
  };

  const auto reference = score_all(1);
  for (const std::size_t threads : {2u, 8u}) {
    const auto parallel = score_all(threads);
    EXPECT_EQ(parallel.first, reference.first) << "threads=" << threads;
    EXPECT_EQ(parallel.second, reference.second) << "threads=" << threads;
  }
}

TEST_P(FullSstaWhatIf, RandomCommitChainMatchesFreshAnalyze) {
  Bench b(circuit());
  auto an = make_analyzer(engine());
  (void)an->analyze(*b.ctx);

  std::vector<GateId> resizable;
  for (GateId g = 0; g < b.nl.node_count(); ++g) {
    if (b.ctx->has_cell(g) && b.lib.group(b.nl.gate(g).cell_group).size_count() >= 2) {
      resizable.push_back(g);
    }
  }
  ASSERT_GE(resizable.size(), 4u);
  std::mt19937 rng(20261019);
  const auto random_resizes = [&](std::size_t count) {
    std::vector<Resize> out;
    while (out.size() < count) {
      const GateId g = resizable[rng() % resizable.size()];
      if (std::any_of(out.begin(), out.end(), [&](const Resize& r) { return r.gate == g; })) {
        continue;
      }
      const auto sizes = b.lib.group(b.nl.gate(g).cell_group).size_count();
      auto size = static_cast<std::uint16_t>(rng() % sizes);
      if (size == b.nl.gate(g).size_index) size = static_cast<std::uint16_t>((size + 1) % sizes);
      out.push_back(Resize{g, size});
    }
    return out;
  };

  // Single and multi-resize commits, with what-ifs scored between them; the
  // last commit restores the first one's gates, so arcs return to earlier
  // (d, sigma) values after their memo entries were rewritten.
  std::vector<Resize> first_restore;
  for (int step = 0; step < 8; ++step) {
    SCOPED_TRACE("step " + std::to_string(step));
    if (step == 4) (void)an->analyze(*b.ctx);  // a re-analysis mid-chain refills the base
    for (int k = 0; k < 3; ++k) {
      const std::vector<Resize> probe = random_resizes(1 + rng() % 3);
      auto spec = an->propose_resizes(probe);
      const Summary& scored = spec->score();
      const Summary reference = analyze_twin(b.nl.sizes(), probe);
      EXPECT_EQ(scored.mean_ps, reference.mean_ps);
      EXPECT_EQ(scored.sigma_ps, reference.sigma_ps);
      spec->rollback();
    }
    std::vector<Resize> commit = step == 7 ? first_restore : random_resizes(1 + step % 4);
    std::vector<Resize> undo;
    for (const Resize& r : commit) undo.push_back(Resize{r.gate, b.nl.gate(r.gate).size_index});
    if (step == 0) first_restore = undo;
    auto spec = an->propose_resizes(commit);
    if (step % 2 == 0) (void)spec->score();  // odd steps commit unscored
    spec->commit();
    Fingerprint twin_snapshot;
    const Summary reference = analyze_twin(b.nl.sizes(), {}, &twin_snapshot);
    expect_summaries_equal(an->current(), reference);
    EXPECT_EQ(fingerprint(*b.ctx), twin_snapshot);

    // A what-if undoing the commit returns arcs to their pre-commit (d,
    // sigma), which the memo must no longer be keyed on.
    auto back = an->propose_resizes(undo);
    const Summary& undone = back->score();
    const Summary undo_reference = analyze_twin(b.nl.sizes(), undo);
    EXPECT_EQ(undone.mean_ps, undo_reference.mean_ps);
    EXPECT_EQ(undone.sigma_ps, undo_reference.sigma_ps);
  }
}

TEST_P(FullSstaWhatIf, StaleBaseBatchVerifyMatchesFreshAnalyze) {
  // recover_area's chunk verification: the analyzer under test holds a
  // checkpoint base while a screen engine commits downsizes to the shared
  // context; the analyzer then scores and commits the pending batch (every
  // resize names its gate's current size) from the stale base.
  for (const char* screen_engine : {"dsta", "fassta"}) {
    SCOPED_TRACE(screen_engine);
    Bench b(circuit());
    auto an = make_analyzer(engine());
    (void)an->analyze(*b.ctx);
    auto screen = make_analyzer(screen_engine);
    (void)screen->analyze(*b.ctx);

    std::vector<Resize> pending;
    for (const Candidate& c : some_candidates(*b.ctx, 6)) {
      const std::uint16_t current = b.nl.gate(c.gate).size_index;
      const auto down = static_cast<std::uint16_t>(current > 0 ? current - 1 : c.size);
      auto spec = screen->propose(c.gate, down);
      (void)spec->score();
      spec->commit();
      pending.push_back(Resize{c.gate, down});
    }
    ASSERT_GE(pending.size(), 2u);

    auto verify = an->propose_resizes(pending);
    const Summary& scored = verify->score();
    Fingerprint twin_snapshot;
    const Summary reference = analyze_twin(b.nl.sizes(), {}, &twin_snapshot);
    EXPECT_EQ(scored.mean_ps, reference.mean_ps);
    EXPECT_EQ(scored.sigma_ps, reference.sigma_ps);
    verify->commit();
    expect_summaries_equal(an->current(), reference);
    EXPECT_EQ(fingerprint(*b.ctx), twin_snapshot);

    // The merged base serves later what-ifs exactly.
    for (const Candidate& c : some_candidates(*b.ctx, 8)) {
      auto spec = an->propose(c.gate, c.size);
      const Summary& what_if = spec->score();
      const Resize r{c.gate, c.size};
      const Summary expected = analyze_twin(b.nl.sizes(), std::span<const Resize>(&r, 1));
      EXPECT_EQ(what_if.mean_ps, expected.mean_ps) << "gate " << c.gate;
      EXPECT_EQ(what_if.sigma_ps, expected.sigma_ps) << "gate " << c.gate;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Circuits, FullSstaWhatIf, ::testing::Range(0, 6),
                         [](const auto& info) {
                           const std::string circuit =
                               info.param % 2 == 0 ? "cla_adder" : "parity_fabric";
                           const std::string engine = kConeEngines[info.param / 2];
                           return engine == "fullssta" ? circuit : engine + "_" + circuit;
                         });

// ---------------------------------------------------------------------------
// ISLE degenerate-weights stress: the estimator must flag, not fabricate.
// ---------------------------------------------------------------------------

TEST(IsleDegeneracy, VanishingVariationTripsTheClampFlag) {
  // With zero proportional variation and zero floor every path sigma
  // vanishes: no finite mean shift exists and the proposal must mark itself
  // degenerate rather than divide by ~0.
  Netlist nl = circuits::make_cla_adder(4);
  const liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationParams vp;
  vp.proportional_coeff = 0.0;
  vp.random_floor_ps = 0.0;
  const variation::VariationModel var(vp);
  auto s = techmap::map_to_library(nl, lib);
  ASSERT_TRUE(s.ok());
  const sta::TimingContext ctx(nl, lib, var, sta::TimingOptions{});

  ssta::IsleOptions opt;
  opt.samples = 256;
  const ssta::IsleResult r = ssta::run_isle(ctx, opt);
  EXPECT_TRUE(r.shift_clamped);
  EXPECT_TRUE(r.degenerate);
}

TEST(IsleDegeneracy, ExtremeLambdaClampsTheShift) {
  // A constraint dozens of sigma out forces |beta| past max_shift: the clamp
  // fires and the result is flagged degenerate even though sampling ran.
  Bench b(circuits::make_cla_adder(4));
  ssta::IsleOptions opt;
  opt.samples = 256;
  const ssta::IsleResult probe = ssta::run_isle(*b.ctx, opt);
  ASSERT_GT(probe.surrogate_sigma_ps, 0.0);

  opt.clock_period_ps = probe.surrogate_mean_ps + 50.0 * probe.surrogate_sigma_ps;
  const ssta::IsleResult r = ssta::run_isle(*b.ctx, opt);
  EXPECT_TRUE(r.shift_clamped);
  EXPECT_TRUE(r.degenerate);
  EXPECT_EQ(std::abs(r.shift_beta), opt.max_shift);
}

TEST(IsleDegeneracy, CollapsedEssTripsWithoutTheDefensiveComponent) {
  // defensive_fraction = 0 removes the weight bound: under a pure shifted
  // proposal at a deep shift, E_f[w] = exp(beta^2) makes the effective sample
  // size collapse to ~ N * exp(-beta^2) — the ESS trip-wire must catch it.
  Bench b(circuits::make_cla_adder(4));
  ssta::IsleOptions opt;
  opt.samples = 2048;
  opt.defensive_fraction = 0.0;
  opt.dominant_paths = 1;
  const ssta::IsleResult probe = ssta::run_isle(*b.ctx, opt);
  ASSERT_GT(probe.surrogate_sigma_ps, 0.0);

  opt.clock_period_ps = probe.surrogate_mean_ps + 4.0 * probe.surrogate_sigma_ps;
  const ssta::IsleResult r = ssta::run_isle(*b.ctx, opt);
  ASSERT_FALSE(r.shift_clamped);  // beta = 4 < max_shift: a genuine ESS trip
  EXPECT_LT(r.ess, double(r.draws) * opt.min_ess_fraction);
  EXPECT_TRUE(r.degenerate);
}

TEST(EngineSelection, SizerValidatesYieldTargetConfiguration) {
  Bench b(circuits::make_ripple_adder(4));
  opt::StatisticalSizerOptions opt;
  opt.max_iterations = 1;
  opt.target_yield = 0.5;
  // No clock period anywhere: cannot evaluate yield.
  EXPECT_THROW((void)opt::size_statistically(*b.ctx, opt), std::invalid_argument);

  // With a clock the loop runs and reports the final yield + draw total,
  // under importance sampling (the default) and plain Monte Carlo (kNominal).
  const ssta::FullSstaResult full = ssta::run_fullssta(*b.ctx);
  opt.isle.clock_period_ps = full.mean_ps + 3.0 * full.sigma_ps;
  opt.isle.samples = 256;
  for (const ssta::IsleProposal proposal :
       {ssta::IsleProposal::kImportance, ssta::IsleProposal::kNominal}) {
    opt.isle.proposal = proposal;
    const auto stats = opt::size_statistically(*b.ctx, opt);
    EXPECT_GE(stats.final_yield, 0.0);
    EXPECT_LE(stats.final_yield, 1.0);
    EXPECT_GT(stats.yield_draws, 0u);
  }
}

TEST(EngineSelection, FlowMakeAnalyzerUsesFlowOptions) {
  core::FlowOptions options;
  options.fullssta.samples_per_pdf = 9;
  core::Flow flow(options);
  ASSERT_TRUE(flow.load_table1("alu1").ok());
  auto an = flow.make_analyzer();  // default fullssta
  const Summary& s = an->analyze(flow.timing());
  EXPECT_EQ(s.output_pdf.size(), 9u);  // the flow's pdf resolution carried over
  EXPECT_THROW((void)flow.make_analyzer("no-such-engine"), std::invalid_argument);
}

}  // namespace
}  // namespace statsizer::timing
