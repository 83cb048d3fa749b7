// Deterministic static timing analysis over a TimingContext: arrival times,
// required times, slack, worst-negative-slack (WNS) critical path. This is
// the classic analysis the paper's WNSS concept generalizes, and the engine
// behind the mean-delay baseline sizer.
#pragma once

#include <algorithm>
#include <optional>
#include <vector>

#include "sta/graph.h"

namespace statsizer::sta {

struct DstaResult {
  /// Latest arrival time per node (0 at primary inputs).
  std::vector<double> arrival_ps;
  /// Required time per node (clock period, or max arrival if none given).
  std::vector<double> required_ps;
  /// slack = required - arrival.
  std::vector<double> slack_ps;
  /// Latest primary-output arrival (circuit delay).
  double max_arrival_ps = 0.0;
  /// Driver of the latest output.
  netlist::GateId critical_output = netlist::kNoGate;
  /// Critical path, primary input first, critical output driver last.
  std::vector<netlist::GateId> critical_path;
  /// Worst slack over primary outputs.
  double wns_ps = 0.0;
};

/// The one forward kernel: the latest arrival at gate @p g (which has
/// fanins), max over its arcs of arrival_of(fanin i) + delay_of(i), starting
/// from 0. run_dsta passes the snapshot; the DSTA what-if passes its cone
/// overlay.
template <typename ArrivalOf, typename DelayOf>
[[nodiscard]] double latest_arrival(const netlist::Gate& g, ArrivalOf&& arrival_of,
                                    DelayOf&& delay_of) {
  double arr = 0.0;
  for (std::size_t i = 0; i < g.fanins.size(); ++i) {
    arr = std::max(arr, arrival_of(g.fanins[i]) + delay_of(i));
  }
  return arr;
}

/// The latest primary-output arrival and the driver attaining it.
struct LatestOutput {
  double arrival_ps = 0.0;
  netlist::GateId driver = netlist::kNoGate;
};

/// The one output fold: the latest primary-output arrival, scanning outputs
/// in order from 0; `>=` keeps the last of equal winners.
template <typename ArrivalOf>
[[nodiscard]] LatestOutput latest_output(const netlist::Netlist& nl, ArrivalOf&& arrival_of) {
  LatestOutput best;
  for (const auto& out : nl.outputs()) {
    const double a = arrival_of(out.driver);
    if (a >= best.arrival_ps) best = LatestOutput{a, out.driver};
  }
  return best;
}

/// Runs deterministic STA. If @p clock_period_ps is empty, required times are
/// set to the observed max arrival (zero-slack normalization).
[[nodiscard]] DstaResult run_dsta(const TimingContext& ctx,
                                  std::optional<double> clock_period_ps = std::nullopt);

}  // namespace statsizer::sta
