// The built-in table plus the FASSTA / DSTA / canonical / Monte-Carlo
// adapters. The FULLSSTA adapter (the incremental what-if overlay) lives in
// fullssta_analyzer.cpp, the ISLE adapter in isle_analyzer.cpp.
#include "timing/analyzer.h"

#include <iterator>
#include <optional>

#include "ssta/canonical.h"
#include "sta/dsta.h"
#include "timing/analyzer_impl.h"
#include "timing/cone.h"

namespace statsizer::timing {

namespace detail {

void BoundAnalyzer::validate_resizes(std::span<const Resize> resizes) const {
  const sta::TimingContext& ctx = bound();
  if (!has_base_) {
    throw std::logic_error(std::string(name()) + ": propose() before analyze()");
  }
  if (resizes.empty()) {
    throw std::invalid_argument(std::string(name()) + ": propose() with no resizes");
  }
  const auto& nl = ctx.netlist();
  for (const Resize& r : resizes) {
    if (r.gate >= nl.node_count() || !ctx.has_cell(r.gate)) {
      throw std::invalid_argument(std::string(name()) + ": propose() on unmapped gate");
    }
    const auto& group = ctx.library().group(nl.gate(r.gate).cell_group);
    if (r.size >= group.size_count()) {
      throw std::invalid_argument(std::string(name()) + ": size index out of range for " +
                                  nl.gate(r.gate).name);
    }
  }
  // Duplicate-gate detection, sized to the batch: the hot paths propose
  // single resizes (vacuously duplicate-free, no allocation), small batches
  // compare pairwise, and only the netlist-wide population bumps pay for a
  // seen-flag vector.
  if (resizes.size() < 2) return;
  if (resizes.size() <= 32) {
    for (std::size_t i = 1; i < resizes.size(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        if (resizes[j].gate == resizes[i].gate) {
          throw std::invalid_argument(std::string(name()) + ": duplicate gate " +
                                      nl.gate(resizes[i].gate).name + " in one speculation");
        }
      }
    }
    return;
  }
  std::vector<std::uint8_t> seen(nl.node_count(), 0);
  for (const Resize& r : resizes) {
    if (seen[r.gate] != 0) {
      throw std::invalid_argument(std::string(name()) + ": duplicate gate " +
                                  nl.gate(r.gate).name + " in one speculation");
    }
    seen[r.gate] = 1;
  }
}

namespace {

using netlist::GateId;

// The SerializedSpeculation / SerializedAnalyzer fallback plumbing lives in
// analyzer_impl.h (detail) so out-of-file adapters — the ISLE engine in
// isle_analyzer.cpp — can subclass it too.

// ---------------------------------------------------------------------------
// FASSTA and DSTA: exact incremental what-ifs (detail::ConeSpeculation).
//
// Both engines propagate a scalar "arrival" per node (moment pairs for
// FASSTA, latest arrival for DSTA) from the snapshot's arc delays. The
// engine half of a speculation is the engine's own per-gate kernel and
// output fold — fassta::Engine::gate_arrival / circuit_arrival,
// sta::latest_arrival / latest_output — run over the cone's schedule at
// width 1, with arcs from the cone overlay and arrivals outside the cone
// from the analyzer's cached base (Summary::node). The kernels are light, so
// only the snapshot half fans out (TimingOptions::threads).
// ---------------------------------------------------------------------------

class FasstaAnalyzer final : public SerializedAnalyzer {
 public:
  explicit FasstaAnalyzer(const AnalyzerOptions& options) : options_(options.fassta) {}

  std::string_view name() const override { return "fassta"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.per_node_moments = true;
    c.what_if = true;
    c.concurrent_speculations = true;
    c.exact_speculation = true;
    return c;
  }

  // Single-resize propose() is inherited: it delegates to this override.
  std::unique_ptr<Speculation> propose_resizes(std::span<const Resize> resizes) override {
    validate_resizes(resizes);
    return std::make_unique<WhatIfSpeculation>(*this, bound(), resizes, *engine_);
  }

 private:
  class WhatIfSpeculation final : public ConeSpeculation {
   public:
    WhatIfSpeculation(BoundAnalyzer& owner, sta::TimingContext& ctx,
                      std::span<const Resize> resizes, const fassta::Engine& engine)
        : ConeSpeculation(owner, ctx, resizes, ctx.options().threads), engine_(engine) {}

   private:
    void propagate_arrivals() override {
      const auto& nl = ctx_.netlist();
      ov_moments_.assign(nl.node_count(), sta::NodeMoments{});
      const std::span<const sta::NodeMoments> base_node = owner_.current().node;
      const auto arrival_of = [&](GateId id) -> const sta::NodeMoments& {
        return cone_.dirty[id] ? ov_moments_[id] : base_node[id];
      };
      sta::run_levels(cone_.schedule(), "timing/cone/level", [&](GateId id) {
        const std::uint32_t off = ctx_.arc_offset(id);
        ov_moments_[id] = engine_.gate_arrival(nl.gate(id), arrival_of, [&](std::size_t i) {
          return sta::NodeMoments{cone_.arc_delay[off + i], cone_.arc_sigma[off + i]};
        });
      });
      const sta::NodeMoments out = engine_.circuit_arrival(arrival_of);
      result_.mean_ps = out.mean_ps;
      result_.sigma_ps = out.sigma_ps;
    }

    void merge_arrivals() override {
      for (const GateId id : cone_.level_gates) base().node[id] = ov_moments_[id];
    }

    const fassta::Engine& engine_;
    std::vector<sta::NodeMoments> ov_moments_;
  };

  Summary compute(sta::TimingContext&) override {
    Summary s;
    sta::NodeMoments circuit;
    s.node = engine_->run(&circuit);
    s.mean_ps = circuit.mean_ps;
    s.sigma_ps = circuit.sigma_ps;
    return s;
  }

  void on_bind(sta::TimingContext& ctx) override { engine_.emplace(ctx, options_); }

  fassta::EngineOptions options_;
  std::optional<fassta::Engine> engine_;
};

// ---------------------------------------------------------------------------
// Deterministic STA: mean = latest primary-output arrival, sigma = 0.
// ---------------------------------------------------------------------------

class DstaAnalyzer final : public SerializedAnalyzer {
 public:
  explicit DstaAnalyzer(const AnalyzerOptions& options)
      : clock_period_ps_(options.clock_period_ps) {}

  std::string_view name() const override { return "dsta"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.per_node_moments = true;
    c.what_if = true;
    c.concurrent_speculations = true;
    c.exact_speculation = true;
    return c;
  }

  // Single-resize propose() is inherited: it delegates to this override.
  std::unique_ptr<Speculation> propose_resizes(std::span<const Resize> resizes) override {
    validate_resizes(resizes);
    return std::make_unique<WhatIfSpeculation>(*this, bound(), resizes);
  }

 private:
  class WhatIfSpeculation final : public ConeSpeculation {
   public:
    WhatIfSpeculation(BoundAnalyzer& owner, sta::TimingContext& ctx,
                      std::span<const Resize> resizes)
        : ConeSpeculation(owner, ctx, resizes, ctx.options().threads) {}

   private:
    void propagate_arrivals() override {
      const auto& nl = ctx_.netlist();
      ov_arrival_.assign(nl.node_count(), 0.0);
      const std::span<const sta::NodeMoments> base_node = owner_.current().node;
      const auto arrival_of = [&](GateId id) {
        return cone_.dirty[id] ? ov_arrival_[id] : base_node[id].mean_ps;
      };
      sta::run_levels(cone_.schedule(), "timing/cone/level", [&](GateId id) {
        const std::uint32_t off = ctx_.arc_offset(id);
        ov_arrival_[id] = sta::latest_arrival(nl.gate(id), arrival_of, [&](std::size_t i) {
          return cone_.arc_delay[off + i];
        });
      });
      result_.mean_ps = sta::latest_output(nl, arrival_of).arrival_ps;
      result_.sigma_ps = 0.0;
    }

    void merge_arrivals() override {
      for (const GateId id : cone_.level_gates) {
        base().node[id] = sta::NodeMoments{ov_arrival_[id], 0.0};
      }
    }

    std::vector<double> ov_arrival_;
  };

  Summary compute(sta::TimingContext& ctx) override {
    const sta::DstaResult r = sta::run_dsta(ctx, clock_period_ps_);
    Summary s;
    s.mean_ps = r.max_arrival_ps;
    s.sigma_ps = 0.0;
    s.node.resize(r.arrival_ps.size());
    for (std::size_t i = 0; i < r.arrival_ps.size(); ++i) {
      s.node[i] = sta::NodeMoments{r.arrival_ps[i], 0.0};
    }
    return s;
  }

  std::optional<double> clock_period_ps_;
};

// ---------------------------------------------------------------------------
// Canonical first-order SSTA: the correlation-aware engine (one shared
// global variable). Unlike FULLSSTA/FASSTA it tracks the variation model's
// global_fraction through the max.
// ---------------------------------------------------------------------------

class CanonicalAnalyzer final : public SerializedAnalyzer {
 public:
  explicit CanonicalAnalyzer(const AnalyzerOptions&) {}

  std::string_view name() const override { return "canonical"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.per_node_moments = true;
    c.what_if = true;
    c.exact_speculation = true;
    return c;
  }

 private:
  Summary compute(sta::TimingContext& ctx) override {
    const ssta::CanonicalResult r = ssta::run_canonical(ctx);
    Summary s;
    s.mean_ps = r.mean_ps;
    s.sigma_ps = r.sigma_ps;
    s.node.resize(r.node.size());
    for (std::size_t i = 0; i < r.node.size(); ++i) {
      s.node[i] = sta::NodeMoments{r.node[i].mean_ps(), r.node[i].sigma_ps()};
    }
    return s;
  }
};

// ---------------------------------------------------------------------------
// Monte Carlo: the sampling reference. Deterministic for a fixed seed (and
// for any MonteCarloOptions::threads value — counter-based sample streams),
// so the serialized what-if is exact.
// ---------------------------------------------------------------------------

class McAnalyzer final : public SerializedAnalyzer {
 public:
  explicit McAnalyzer(const AnalyzerOptions& options) : mc_(options.monte_carlo) {}

  std::string_view name() const override { return "mc"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.per_node_moments = mc_.per_node_stats;
    c.what_if = true;
    c.exact_speculation = true;
    return c;
  }

 private:
  Summary compute(sta::TimingContext& ctx) override {
    const ssta::MonteCarloResult r = ssta::run_monte_carlo(ctx, mc_);
    Summary s;
    s.mean_ps = r.mean_ps;
    s.sigma_ps = r.sigma_ps;
    s.node = r.node;  // empty unless per_node_stats
    return s;
  }

  ssta::MonteCarloOptions mc_;
};

}  // namespace

std::unique_ptr<Analyzer> make_fassta_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<FasstaAnalyzer>(options);
}
std::unique_ptr<Analyzer> make_canonical_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<CanonicalAnalyzer>(options);
}
std::unique_ptr<Analyzer> make_dsta_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<DstaAnalyzer>(options);
}
std::unique_ptr<Analyzer> make_mc_analyzer(const AnalyzerOptions& options) {
  return std::make_unique<McAnalyzer>(options);
}

}  // namespace detail

// ---------------------------------------------------------------------------
// The built-in table
// ---------------------------------------------------------------------------

namespace {

struct Builtin {
  std::string_view name;
  std::unique_ptr<Analyzer> (*make)(const AnalyzerOptions&);
};

/// Sorted by name: analyzer_names() and the unknown-name message list the
/// engines in this order.
constexpr Builtin kBuiltins[] = {
    {"canonical", detail::make_canonical_analyzer},
    {"dsta", detail::make_dsta_analyzer},
    {"fassta", detail::make_fassta_analyzer},
    {"fullssta", detail::make_fullssta_analyzer},
    {"isle", detail::make_isle_analyzer},
    {"mc", detail::make_mc_analyzer},
};

}  // namespace

std::unique_ptr<Analyzer> make_analyzer(std::string_view name, const AnalyzerOptions& options) {
  for (const Builtin& b : kBuiltins) {
    if (b.name == name) return b.make(options);
  }
  std::string known;
  for (const Builtin& b : kBuiltins) {
    if (!known.empty()) known += ", ";
    known += b.name;
  }
  throw std::invalid_argument("unknown analyzer \"" + std::string(name) + "\" (known: " +
                              known + ")");
}

std::vector<std::string> analyzer_names() {
  std::vector<std::string> names;
  names.reserve(std::size(kBuiltins));
  for (const Builtin& b : kBuiltins) names.emplace_back(b.name);
  return names;
}

}  // namespace statsizer::timing
