#include "ssta/fullssta.h"

#include <cmath>
#include <stdexcept>
#include <string>

#include "debug/validate.h"
#include "util/check.h"

namespace statsizer::ssta {

using netlist::GateId;
using pdf::DiscretePdf;

void check_options(const FullSstaOptions& options) {
  if (options.samples_per_pdf < 2) {
    throw std::invalid_argument("FullSstaOptions::samples_per_pdf must be >= 2, got " +
                                std::to_string(options.samples_per_pdf));
  }
  if (!std::isfinite(options.span_sigmas) || options.span_sigmas <= 0.0) {
    throw std::invalid_argument("FullSstaOptions::span_sigmas must be finite and > 0, got " +
                                std::to_string(options.span_sigmas));
  }
}

FullSstaResult run_fullssta(const sta::TimingContext& ctx, const FullSstaOptions& options,
                            FullSstaResult buffers) {
  check_options(options);
  const auto& nl = ctx.netlist();

  if constexpr (debug::kParanoid) {
    debug::validate_structure_fresh(nl, ctx.levelization());
  }

  FullSstaResult result;
  result.node.assign(nl.node_count(), sta::NodeMoments{});
  const bool keep = options.keep_node_pdfs;
  std::vector<DiscretePdf> arrival;
  if (keep) {
    arrival = std::move(buffers.node_pdf);
    result.arc_pdf = std::move(buffers.arc_pdf);
    result.arc_pdf.resize(ctx.arc_count());
  }
  arrival.resize(nl.node_count());

  // Primary inputs launch as a point mass at 0, or at their set_input_delay
  // when one is set; every other node is written by the pass below.
  const auto& input_arrival = ctx.constraints().input_arrival_ps;
  for (GateId id = 0; id < nl.node_count(); ++id) {
    if (!nl.gate(id).fanins.empty()) continue;
    const bool delayed = !input_arrival.empty() && input_arrival[id] != 0.0;
    arrival[id] = DiscretePdf::point(delayed ? input_arrival[id] : 0.0);
    if (delayed) result.node[id] = sta::NodeMoments{input_arrival[id], 0.0};
  }

  // The gate-pdf kernel on the full level schedule: a gate reads only
  // lower-level pdfs and writes only its own slots. Chunk size 1: per-gate
  // pdf convolutions are heavy (~samples^2 work each), so per-gate
  // scheduling load-balances best. Kept pdfs are copied into their entries:
  // a copy reuses the entry's allocation from the donated buffers.
  const auto arrival_of = [&](GateId f) -> const DiscretePdf& { return arrival[f]; };
  sta::run_levels(ctx.full_schedule(), "ssta/fullssta/level", options.threads,
                  ctx.options().min_level_width_for_parallel, 1, [&](GateId id) {
                    const auto& g = nl.gate(id);
                    if (g.fanins.empty()) return;  // PI / constant: launch arrival
                    const std::uint32_t off = ctx.arc_offset(id);
                    const auto through = [&](std::size_t i) {
                      return through_pdf(arrival[g.fanins[i]], ctx.arc_delays()[off + i],
                                         ctx.arc_sigmas()[off + i], options);
                    };
                    const auto kept_through = [&](std::size_t i) -> const DiscretePdf& {
                      const DiscretePdf fresh = through(i);
                      return result.arc_pdf[off + i] = fresh;
                    };
                    DiscretePdf acc =
                        keep ? gate_arrival_pdf(g.fanins.size(), kept_through,
                                                options.samples_per_pdf)
                             : gate_arrival_pdf(g.fanins.size(), through, options.samples_per_pdf);
                    result.node[id] = sta::NodeMoments{acc.mean(), acc.stddev()};
                    if (keep) {
                      arrival[id] = acc;
                    } else {
                      arrival[id] = std::move(acc);
                    }
                  });

  result.output_pdf = output_max_pdf(nl, arrival_of, options.samples_per_pdf);
  result.mean_ps = result.output_pdf.mean();
  result.sigma_ps = result.output_pdf.stddev();
  if (keep) result.node_pdf = std::move(arrival);
  return result;
}

}  // namespace statsizer::ssta
