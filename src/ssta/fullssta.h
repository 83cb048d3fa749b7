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
  /// Also return the arrival pdf of every node (FullSstaResult::node_pdf).
  /// Off by default: the pdfs are only needed by consumers that re-propagate
  /// increments against them (timing::Analyzer's what-if overlay).
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
  /// Arrival pdf of the statistical max over all primary outputs: the random
  /// variable RV_O that "characterizes the mean and variance of the entire
  /// circuit" (paper section 2.1).
  pdf::DiscretePdf output_pdf;
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
};

/// The one gate-pdf kernel: the arrival pdf of gate @p g (which has fanins)
/// as the statistical max over its arcs of arrival_in (+) Normal(d, sigma).
/// @p arrival_of maps a fanin to its arrival pdf; @p arc_delay / @p arc_sigma
/// are the gate's arc slots. run_fullssta passes the snapshot and its own
/// arrivals; the FULLSSTA what-if passes its cone overlay.
template <typename ArrivalOf>
[[nodiscard]] pdf::DiscretePdf gate_arrival_pdf(const netlist::Gate& g,
                                                const double* arc_delay,
                                                const double* arc_sigma,
                                                ArrivalOf&& arrival_of,
                                                const FullSstaOptions& options) {
  const std::size_t samples = options.samples_per_pdf;
  pdf::DiscretePdf acc;
  for (std::size_t i = 0; i < g.fanins.size(); ++i) {
    const pdf::DiscretePdf delay =
        pdf::DiscretePdf::normal(arc_delay[i], arc_sigma[i], samples, options.span_sigmas);
    pdf::DiscretePdf through = pdf::sum(arrival_of(g.fanins[i]), delay, samples);
    acc = (i == 0) ? std::move(through) : pdf::max(acc, through, samples);
  }
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

/// Runs discrete-pdf SSTA over the whole netlist.
[[nodiscard]] FullSstaResult run_fullssta(const sta::TimingContext& ctx,
                                          const FullSstaOptions& options = {});

}  // namespace statsizer::ssta
