// FULLSSTA — the paper's accurate outer-loop statistical timing engine
// (section 4.2, after Liou et al. DAC'01). Arrival times are full discrete
// pdfs propagated through the netlist:
//   through an arc:  arrival_out = arrival_in (+) Normal(d_arc, sigma_arc)
//   across fanins:   statistical max via CDF product
// pdfs are kept at a user-controlled sampling rate (paper: 10-15 points).
// Besides the pdfs, the engine records mean/sigma at every node — exactly the
// values FASSTA later uses as subcircuit boundary conditions.
#pragma once

#include <utility>
#include <vector>

#include "debug/validate.h"
#include "pdf/discrete_pdf.h"
#include "util/check.h"
#include "sta/graph.h"

namespace statsizer::ssta {

struct FullSstaOptions {
  std::size_t samples_per_pdf = 13;  ///< paper: "10-15 samples per pdf"
  double span_sigmas = 4.0;          ///< grid half-width for gate-delay pdfs
  /// Also return what an incremental what-if re-propagates against: the
  /// arrival pdf of every node and the through pdf of every arc
  /// (FullSstaResult::node_pdf / arc_pdf), taken from the same pass. Off by
  /// default: only the FULLSSTA analyzer's what-if overlay needs them.
  bool keep_node_pdfs = false;
  /// Worker threads for the arrival-pdf propagation — the full sweep and the
  /// FULLSSTA analyzer's what-if cone replay: gates of one level fan across
  /// util::ThreadPool (fanins live in strictly lower levels, so a level's
  /// gates are independent; levels are barriers). 1 = the same level
  /// schedule at width 1, 0 = hardware concurrency; results are
  /// bitwise-identical for any value (levelized_update_test pins this).
  /// Levels narrower than the context's
  /// TimingOptions::min_level_width_for_parallel run serially.
  std::size_t threads = 1;
};

struct FullSstaResult {
  /// Arrival moments per node (indexed by GateId).
  std::vector<sta::NodeMoments> node;
  /// Arrival pdf per node (indexed by GateId; only if keep_node_pdfs).
  std::vector<pdf::DiscretePdf> node_pdf;
  /// Through pdf per arc, arrival(fanin) (+) Normal(d, sigma) (indexed like
  /// TimingContext::arc_offset; only if keep_node_pdfs).
  std::vector<pdf::DiscretePdf> arc_pdf;
  /// Arrival pdf of the statistical max over all primary outputs: the random
  /// variable RV_O that "characterizes the mean and variance of the entire
  /// circuit" (paper section 2.1).
  pdf::DiscretePdf output_pdf;
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
};

/// Arc kernel: the "through" pdf of one arc, the fanin's arrival @p arrival
/// (+) Normal(@p delay, @p sigma) on the options' grid.
[[nodiscard]] inline pdf::DiscretePdf through_pdf(const pdf::DiscretePdf& arrival, double delay,
                                                  double sigma, const FullSstaOptions& options) {
  return pdf::sum(arrival,
                  pdf::DiscretePdf::normal(delay, sigma, options.samples_per_pdf,
                                           options.span_sigmas),
                  options.samples_per_pdf);
}

/// The one gate-pdf kernel: the arrival pdf of a gate with @p fanin_count
/// arcs (at least one) as the statistical max, in fanin order, of its arcs'
/// through pdfs. @p through_of(i) yields arc i's through pdf, by value or by
/// const reference: run_fullssta computes each with through_pdf (keeping a
/// copy when asked), the FULLSSTA what-if reuses its analyzer's per-arc memo
/// where an arc and its fanin are unchanged.
template <typename ThroughOf>
[[nodiscard]] pdf::DiscretePdf gate_arrival_pdf(std::size_t fanin_count, ThroughOf&& through_of,
                                                std::size_t samples) {
  pdf::DiscretePdf acc = through_of(0);
  for (std::size_t i = 1; i < fanin_count; ++i) acc = pdf::max(acc, through_of(i), samples);
  if constexpr (debug::kParanoid) {
    // Exceptions from a wavefront worker are captured and rethrown on the
    // calling thread by parallel_for, so the audit is safe in both modes.
    debug::validate_pdf(acc);
  }
  return acc;
}

/// The one output fold: RV_O, the statistical max over all primary outputs
/// in output order (a point mass at 0 for a netlist without outputs).
template <typename ArrivalOf>
[[nodiscard]] pdf::DiscretePdf output_max_pdf(const netlist::Netlist& nl,
                                              ArrivalOf&& arrival_of, std::size_t samples) {
  pdf::DiscretePdf out = pdf::DiscretePdf::point(0.0);
  bool first = true;
  for (const auto& po : nl.outputs()) {
    out = first ? arrival_of(po.driver) : pdf::max(out, arrival_of(po.driver), samples);
    first = false;
  }
  if constexpr (debug::kParanoid) {
    debug::validate_pdf(out);
  }
  return out;
}

/// Throws std::invalid_argument naming the offending field when @p options
/// cannot describe a pdf grid: samples_per_pdf < 2, or span_sigmas not finite
/// and positive. run_fullssta and the "fullssta" analyzer factory call it.
void check_options(const FullSstaOptions& options);

/// Runs discrete-pdf SSTA over the whole netlist. With keep_node_pdfs, the
/// node_pdf / arc_pdf of @p buffers (an earlier result) are refilled in
/// place: each kept pdf is copied into its entry, reusing that entry's
/// allocation, so a caller that re-analyzes keeps one long-lived buffer per
/// node and arc instead of a fresh set scattered over the allocator on every
/// pass.
[[nodiscard]] FullSstaResult run_fullssta(const sta::TimingContext& ctx,
                                          const FullSstaOptions& options = {},
                                          FullSstaResult buffers = {});

}  // namespace statsizer::ssta
