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
// Per-arc memo. The base also holds every arc's through pdf,
// arrival(fanin) (+) Normal(d, sigma), from the same run_fullssta pass
// (keep_node_pdfs), keyed on the analyzer's own copy of the arc's (d,
// sigma). A cone arc whose (d, sigma) is bitwise-equal to its key and whose
// fanin is outside the cone reads the memo instead of running normal() and
// sum(), which would reproduce it bit for bit. The key must be the
// analyzer's copy, never the live snapshot: recover_area verifies a chunk
// against a base older than the context (the screen engine has already
// committed the chunk's downsizes to it). Invariant: memo[arc] ==
// through_pdf(base arrival of its fanin, key[arc]). A commit changes only
// dirty gates' arcs (every fanout of a dirty node is dirty), so merging the
// recomputed arcs keeps it.
//
// The pdf overlay (arrivals, moments, recomputed through pdfs) is stored per
// cone slot (ConeSnapshot::slot), so a live speculation's pdf memory is
// proportional to its cone. The memo is shared and read-only while
// speculations score; analyze() and commit() write it, and neither runs
// concurrently with scoring.
#include <bit>
#include <cstdint>
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
    // The pass refills the base's pdf buffers in place, so until it
    // succeeds there is no base, and speculations on the old one are invalid.
    has_base_ = false;
    ++epoch_;
    ssta::FullSstaResult buffers;
    buffers.node_pdf = std::move(base_arrival_);
    buffers.arc_pdf = std::move(base_through_);
    ssta::FullSstaResult r = ssta::run_fullssta(ctx, opt, std::move(buffers));
    base_arrival_ = std::move(r.node_pdf);
    base_through_ = std::move(r.arc_pdf);
    key_delay_.assign(ctx.arc_delays().begin(), ctx.arc_delays().end());
    key_sigma_.assign(ctx.arc_sigmas().begin(), ctx.arc_sigmas().end());
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
      const ssta::FullSstaOptions& options = analyzer_.options_;
      const std::vector<GateId>& cone = cone_.level_gates;
      // Cone slot k's arcs occupy [ov_arc_[k], ov_arc_[k + 1]) of ov_through_.
      ov_arc_.resize(cone.size() + 1);
      ov_arc_[0] = 0;
      for (std::size_t k = 0; k < cone.size(); ++k) {
        ov_arc_[k + 1] = ov_arc_[k] + static_cast<std::uint32_t>(nl.gate(cone[k]).fanins.size());
      }
      ov_arrival_.assign(cone.size(), DiscretePdf());
      ov_moments_.assign(cone.size(), sta::NodeMoments{});
      ov_through_.assign(ov_arc_.back(), DiscretePdf());  // empty = memo read
      const auto arrival_of = [&](GateId id) -> const DiscretePdf& {
        return cone_.dirty[id] ? ov_arrival_[cone_.slot[id]] : analyzer_.base_arrival_[id];
      };
      sta::run_levels(cone_.schedule(), "timing/cone/level", threads_,
                      ctx_.options().min_level_width_for_parallel, 1, [&](GateId id) {
                        const auto& g = nl.gate(id);
                        const std::uint32_t k = cone_.slot[id];
                        const std::uint32_t off = ctx_.arc_offset(id);
                        const auto through_of = [&](std::size_t i) -> const DiscretePdf& {
                          const std::uint32_t a = off + static_cast<std::uint32_t>(i);
                          const double d = cone_.arc_delay[a];
                          const double sigma = cone_.arc_sigma[a];
                          if (!cone_.dirty[g.fanins[i]] && same_bits(d, analyzer_.key_delay_[a]) &&
                              same_bits(sigma, analyzer_.key_sigma_[a])) {
                            return analyzer_.base_through_[a];
                          }
                          DiscretePdf& slot = ov_through_[ov_arc_[k] + i];
                          slot = ssta::through_pdf(arrival_of(g.fanins[i]), d, sigma, options);
                          return slot;
                        };
                        DiscretePdf acc = ssta::gate_arrival_pdf(g.fanins.size(), through_of,
                                                                 options.samples_per_pdf);
                        ov_moments_[k] = sta::NodeMoments{acc.mean(), acc.stddev()};
                        ov_arrival_[k] = std::move(acc);
                      });
      ov_output_ = ssta::output_max_pdf(nl, arrival_of, options.samples_per_pdf);
      result_.mean_ps = ov_output_.mean();
      result_.sigma_ps = ov_output_.stddev();
    }

    void merge_arrivals() override {
      const auto& nl = ctx_.netlist();
      const std::vector<GateId>& cone = cone_.level_gates;
      for (std::size_t k = 0; k < cone.size(); ++k) {
        const GateId id = cone[k];
        analyzer_.base_arrival_[id] = std::move(ov_arrival_[k]);
        base().node[id] = ov_moments_[k];
        const std::uint32_t off = ctx_.arc_offset(id);
        for (std::uint32_t i = 0; i < nl.gate(id).fanins.size(); ++i) {
          DiscretePdf& through = ov_through_[ov_arc_[k] + i];
          if (through.size() == 0) continue;  // a memo read: entry and key still hold
          analyzer_.base_through_[off + i] = std::move(through);
          analyzer_.key_delay_[off + i] = cone_.arc_delay[off + i];
          analyzer_.key_sigma_[off + i] = cone_.arc_sigma[off + i];
        }
      }
      base().output_pdf = std::move(ov_output_);
    }

    static bool same_bits(double a, double b) {
      return std::bit_cast<std::uint64_t>(a) == std::bit_cast<std::uint64_t>(b);
    }

    FullSstaAnalyzer& analyzer_;
    // Overlay state per cone slot, kept after score() so commit() can merge it.
    std::vector<DiscretePdf> ov_arrival_;
    std::vector<sta::NodeMoments> ov_moments_;
    std::vector<std::uint32_t> ov_arc_;  ///< cone slot -> first arc in ov_through_
    std::vector<DiscretePdf> ov_through_;
    DiscretePdf ov_output_;
  };

  ssta::FullSstaOptions options_;
  std::vector<DiscretePdf> base_arrival_;  ///< per node
  // The per-arc memo (ctx.arc_offset indexing): through pdfs and their keys.
  std::vector<DiscretePdf> base_through_;
  std::vector<double> key_delay_;
  std::vector<double> key_sigma_;
};

}  // namespace

std::unique_ptr<Analyzer> make_fullssta_analyzer(const AnalyzerOptions& options) {
  ssta::check_options(options.fullssta);
  return std::make_unique<FullSstaAnalyzer>(options);
}

}  // namespace statsizer::timing::detail
