// FULLSSTA behind the timing::Analyzer interface, with the incremental
// what-if overlay that makes parallel speculative confirmations possible.
//
// A speculation is a detail::ConeSpeculation (timing/cone.h): the snapshot
// half re-runs TimingContext::relax over the resize's fanout cone, and this
// file adds the pdf half — ssta::gate_arrival_pdf, the kernel run_fullssta
// runs, over the same cone schedule, reading everything outside the cone
// from the analyzer's cached base, then ssta::output_max_pdf. Because both
// halves are the full-sweep kernels restricted to the cone, the score — and
// the base state a commit() installs — is bitwise-identical to a
// from-scratch update() + run_fullssta() of the resized netlist. The
// conformance suite (tests/analyzer_conformance_test.cpp) pins this.
//
// Overlay storage is dense (GateId-indexed vectors, cleared per score):
// the O(nodes) clears are memset-class and dwarfed by the cone's pdf
// convolutions, but each live speculation holds O(nodes + arcs) overlay
// memory — callers that score many speculations concurrently should bound
// how many they hold (util::first_accepted, which the sizer and area
// recovery scan with, keeps at most 2 x threads + 1 live).
#include <utility>

#include "timing/cone.h"

namespace statsizer::timing::detail {

namespace {

using netlist::GateId;
using pdf::DiscretePdf;

class FullSstaAnalyzer final : public BoundAnalyzer {
 public:
  explicit FullSstaAnalyzer(const AnalyzerOptions& options) : options_(options.fullssta) {}

  std::string_view name() const override { return "fullssta"; }

  Capabilities capabilities() const override {
    Capabilities c;
    c.per_node_moments = true;
    c.output_pdf = true;
    c.what_if = true;
    c.concurrent_speculations = true;
    c.exact_speculation = true;
    return c;
  }

  const Summary& analyze(sta::TimingContext& ctx) override {
    ctx_ = &ctx;
    ssta::FullSstaOptions opt = options_;
    opt.keep_node_pdfs = true;
    ssta::FullSstaResult r = ssta::run_fullssta(ctx, opt);
    base_arrival_ = std::move(r.node_pdf);
    Summary s;
    s.mean_ps = r.mean_ps;
    s.sigma_ps = r.sigma_ps;
    s.node = std::move(r.node);
    s.output_pdf = std::move(r.output_pdf);
    install_base(std::move(s));
    return current();
  }

  std::unique_ptr<Speculation> propose(GateId gate, std::uint16_t size) override {
    const Resize r{gate, size};
    return propose_resizes(std::span<const Resize>(&r, 1));
  }

  std::unique_ptr<Speculation> propose_resizes(std::span<const Resize> resizes) override {
    validate_resizes(resizes);
    return std::make_unique<WhatIfSpeculation>(*this, bound(), resizes);
  }

 private:
  /// Both halves run FullSstaOptions::threads wide (a speculation scored
  /// from inside a pool worker runs inline; the big win is the atomic
  /// multi-resize confirmations scored on the caller's thread).
  class WhatIfSpeculation final : public ConeSpeculation {
   public:
    WhatIfSpeculation(FullSstaAnalyzer& owner, sta::TimingContext& ctx,
                      std::span<const Resize> resizes)
        : ConeSpeculation(owner, ctx, resizes, owner.options_.threads), analyzer_(owner) {}

   private:
    void propagate_arrivals() override {
      const auto& nl = ctx_.netlist();
      const std::size_t n = nl.node_count();
      const ssta::FullSstaOptions& options = analyzer_.options_;
      ov_arrival_.assign(n, DiscretePdf());
      ov_moments_.assign(n, sta::NodeMoments{});
      const auto arrival_of = [&](GateId id) -> const DiscretePdf& {
        return cone_.dirty[id] ? ov_arrival_[id] : analyzer_.base_arrival_[id];
      };
      sta::run_levels(cone_.schedule(), "timing/cone/level", threads_,
                      ctx_.options().min_level_width_for_parallel, 1, [&](GateId id) {
                        const std::uint32_t off = ctx_.arc_offset(id);
                        DiscretePdf acc = ssta::gate_arrival_pdf(
                            nl.gate(id), cone_.arc_delay.data() + off,
                            cone_.arc_sigma.data() + off, arrival_of, options);
                        ov_moments_[id] = sta::NodeMoments{acc.mean(), acc.stddev()};
                        ov_arrival_[id] = std::move(acc);
                      });
      ov_output_ = ssta::output_max_pdf(nl, arrival_of, options.samples_per_pdf);
      result_.mean_ps = ov_output_.mean();
      result_.sigma_ps = ov_output_.stddev();
    }

    void merge_arrivals() override {
      for (const GateId id : cone_.level_gates) {
        analyzer_.base_arrival_[id] = std::move(ov_arrival_[id]);
        base().node[id] = ov_moments_[id];
      }
      base().output_pdf = std::move(ov_output_);
    }

    FullSstaAnalyzer& analyzer_;
    // Overlay state, kept after score() so commit() can merge it.
    std::vector<DiscretePdf> ov_arrival_;
    std::vector<sta::NodeMoments> ov_moments_;
    DiscretePdf ov_output_;
  };

  ssta::FullSstaOptions options_;
  std::vector<DiscretePdf> base_arrival_;
};

}  // namespace

std::unique_ptr<Analyzer> make_fullssta_analyzer(const AnalyzerOptions& options) {
  ssta::check_options(options.fullssta);
  return std::make_unique<FullSstaAnalyzer>(options);
}

}  // namespace statsizer::timing::detail
