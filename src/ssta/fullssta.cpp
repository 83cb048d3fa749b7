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

FullSstaResult run_fullssta(const sta::TimingContext& ctx, const FullSstaOptions& options) {
  check_options(options);
  const auto& nl = ctx.netlist();

  if constexpr (debug::kParanoid) {
    debug::validate_structure_fresh(nl, ctx.levelization());
  }

  FullSstaResult result;
  result.node.assign(nl.node_count(), sta::NodeMoments{});

  std::vector<DiscretePdf> arrival(nl.node_count(), DiscretePdf::point(0.0));

  // Constrained primary inputs (set_input_delay) launch as a point mass at
  // their delay. Guarded so the unconstrained path stays bitwise-identical.
  const auto& input_arrival = ctx.constraints().input_arrival_ps;
  if (!input_arrival.empty()) {
    for (GateId id = 0; id < nl.node_count(); ++id) {
      if (!nl.gate(id).fanins.empty() || input_arrival[id] == 0.0) continue;
      arrival[id] = DiscretePdf::point(input_arrival[id]);
      result.node[id] = sta::NodeMoments{input_arrival[id], 0.0};
    }
  }

  // The gate-pdf kernel on the full level schedule: a gate reads only
  // lower-level pdfs and writes only its own slots. Chunk size 1: per-gate
  // pdf convolutions are heavy (~samples^2 work each), so per-gate
  // scheduling load-balances best.
  const auto arrival_of = [&](GateId f) -> const DiscretePdf& { return arrival[f]; };
  sta::run_levels(ctx.full_schedule(), "ssta/fullssta/level", options.threads,
                  ctx.options().min_level_width_for_parallel, 1, [&](GateId id) {
                    const auto& g = nl.gate(id);
                    if (g.fanins.empty()) return;  // PI / constant: launch arrival
                    const std::uint32_t off = ctx.arc_offset(id);
                    DiscretePdf acc =
                        gate_arrival_pdf(g, ctx.arc_delays().data() + off,
                                         ctx.arc_sigmas().data() + off, arrival_of, options);
                    result.node[id] = sta::NodeMoments{acc.mean(), acc.stddev()};
                    arrival[id] = std::move(acc);
                  });

  result.output_pdf = output_max_pdf(nl, arrival_of, options.samples_per_pdf);
  result.mean_ps = result.output_pdf.mean();
  result.sigma_ps = result.output_pdf.stddev();
  if (options.keep_node_pdfs) result.node_pdf = std::move(arrival);
  return result;
}

}  // namespace statsizer::ssta
