// FASSTA — the fast moment-only statistical timing engine (paper section
// 4.3). It propagates (mean, sigma) pairs instead of full pdfs:
//   sum:  mu = mu_in + d_arc,  var = var_in + sigma_arc^2
//   max:  Clark moments with dominance early-outs and the quadratic erf
//         approximation (fassta/clark.h)
// Boundary conditions at a subcircuit cut come from the most recent FULLSSTA
// pass. The engine's whole reason to exist is evaluating candidate gate sizes
// inside the optimizer's inner loop at negligible cost.
//
// Thread safety: an Engine holds only a const reference to the TimingContext
// snapshot plus immutable options, and every method is const and re-entrant —
// one Engine may be shared by any number of threads as long as nobody mutates
// the netlist or calls TimingContext::update() concurrently. The only mutable
// state a call needs lives in an explicit Scratch workspace; give each worker
// thread its own (see docs/ARCHITECTURE.md, "Concurrency & determinism
// contracts").
#pragma once

#include <cmath>
#include <cstdint>
#include <span>
#include <vector>

#include "netlist/subcircuit.h"
#include "sta/graph.h"

namespace statsizer::fassta {

/// How max is folded over a gate's arcs.
enum class MaxMode {
  kFast,   ///< paper: dominance early-out + quadratic erf
  kExact,  ///< Clark with std::erf (accuracy reference / ablations)
};

struct EngineOptions {
  MaxMode max_mode = MaxMode::kFast;
  double dominance_threshold = 2.6;  ///< |alpha| beyond which one input wins
};

/// Cost summary for a subcircuit under paper eq. 7:
///   cost = max over outputs of (mu_i + lambda * sigma_i).
struct SubcircuitCost {
  double cost = 0.0;
  double worst_mean_ps = 0.0;   ///< moments of the output attaining the max
  double worst_sigma_ps = 0.0;
};

class Engine {
 public:
  /// Reusable workspace for the scoring entry points. A Scratch is NOT
  /// thread-safe: each thread scoring candidates must own its own instance
  /// (the engine itself may be shared). Reusing one Scratch across calls
  /// avoids an O(nodes) allocation per candidate, which is what makes the
  /// optimizer's parallel inner loop cheap. If a call throws, discard the
  /// Scratch (its bookkeeping may be mid-reset).
  struct Scratch {
    std::vector<sta::NodeMoments> arrival;   ///< score_candidate: arrivals, valid on the cone
    std::vector<std::uint8_t> in_cone;       ///< score_candidate: all-zero between calls
    /// score_candidate: the candidate's dirty closure in level order; after a
    /// call it still holds the last candidate's cone (its size is the work).
    std::vector<netlist::GateId> cone;
    std::vector<sta::NodeMoments> local;     ///< evaluate_candidate: member arrivals
    std::vector<std::uint32_t> local_index;  ///< evaluate_candidate: GateId -> member slot
  };

  explicit Engine(const sta::TimingContext& ctx, EngineOptions options = {});

  /// Statistical max of two Gaussian moment pairs under the engine's options.
  /// Pure function of its arguments — safe from any thread.
  [[nodiscard]] sta::NodeMoments stat_max(const sta::NodeMoments& a,
                                          const sta::NodeMoments& b) const;

  /// Sum of two independent Gaussian moment pairs: an arrival through an arc
  /// (or a window output's local arrival through its downstream potential).
  [[nodiscard]] static sta::NodeMoments stat_sum(const sta::NodeMoments& a,
                                                 const sta::NodeMoments& b) {
    return sta::NodeMoments{a.mean_ps + b.mean_ps,
                            std::sqrt(a.sigma_ps * a.sigma_ps + b.sigma_ps * b.sigma_ps)};
  }

  /// The one per-gate kernel: gate @p g's arrival moments (g has fanins) as
  /// the stat_max fold, in fanin order, of stat_sum(arrival_of(fanin i),
  /// arc_of(i)), where arc_of(i) gives arc i's delay moments. run() passes
  /// the snapshot; candidate scoring and the FASSTA what-if pass overlays.
  template <typename ArrivalOf, typename ArcOf>
  [[nodiscard]] sta::NodeMoments gate_arrival(const netlist::Gate& g, ArrivalOf&& arrival_of,
                                              ArcOf&& arc_of) const {
    sta::NodeMoments acc;
    for (std::size_t i = 0; i < g.fanins.size(); ++i) {
      const sta::NodeMoments through = stat_sum(arrival_of(g.fanins[i]), arc_of(i));
      acc = (i == 0) ? through : stat_max(acc, through);
    }
    return acc;
  }

  /// The one circuit fold: the stat_max of the primary outputs' arrivals in
  /// output order ((0, 0) for a netlist without outputs).
  template <typename ArrivalOf>
  [[nodiscard]] sta::NodeMoments circuit_arrival(ArrivalOf&& arrival_of) const {
    sta::NodeMoments out{0.0, 0.0};
    bool first = true;
    for (const auto& po : ctx_.netlist().outputs()) {
      out = first ? arrival_of(po.driver) : stat_max(out, arrival_of(po.driver));
      first = false;
    }
    return out;
  }

  /// Full-netlist moment propagation: one O(E) sweep of gate_arrival over
  /// the level schedule. Returns per-node arrival moments (the base
  /// score_candidate reads); @p circuit is filled with the moments of the
  /// statistical max over all primary outputs if non-null. Const and
  /// re-entrant.
  [[nodiscard]] std::vector<sta::NodeMoments> run(sta::NodeMoments* circuit = nullptr) const;

  /// Circuit moments (statistical max over primary outputs) with gate
  /// @p center hypothetically bound to @p candidate, scored incrementally:
  /// @p base must be run() on the same snapshot, and gate_arrival re-runs
  /// only over the candidate's dirty closure — the center, its drivers whose
  /// load the candidate changes (their arcs are recomputed from the new
  /// load), and the fanout closure of those, in level order; every other
  /// arrival is read from @p base. Bitwise-identical to a full sweep with the
  /// perturbed arcs substituted, because every gate outside the closure sees
  /// exactly the inputs run() saw. This is the robust inner-loop score:
  /// unlike a truncated window it sees the max-over-all-paths behaviour of
  /// the objective (see DESIGN.md, "window truncation"). Cost: O(cone) gate
  /// kernels plus the O(outputs) circuit fold, and an O(nodes) scratch
  /// allocation only on a Scratch's first use. Const and re-entrant; safe to
  /// call concurrently as long as every thread passes a distinct Scratch.
  [[nodiscard]] sta::NodeMoments score_candidate(std::span<const sta::NodeMoments> base,
                                                 netlist::GateId center,
                                                 const liberty::Cell& candidate,
                                                 Scratch& scratch) const;

  /// Backward moment pass: for every node, the statistical moments of the
  /// worst downstream path from the node's *output* to any primary output
  /// (0 for PO drivers' direct observation). Window outputs are scored as
  /// local-arrival (+) downstream-potential, which makes costs of different
  /// window outputs globally comparable — without this, a candidate that
  /// slows a side path with deep downstream logic can look like a win inside
  /// a truncated window (see DESIGN.md, "window truncation"). Const and
  /// re-entrant.
  [[nodiscard]] std::vector<sta::NodeMoments> compute_downstream() const;

  /// Evaluates paper eq. 7 over @p sc with gate @p center hypothetically
  /// bound to @p candidate (pass the currently bound cell to score the status
  /// quo). @p boundary are FULLSSTA's per-node arrival moments (subcircuit
  /// members are recomputed, boundary nodes are read as-is); @p downstream
  /// comes from compute_downstream() on the same snapshot. Const and
  /// re-entrant; allocates its own workspace.
  [[nodiscard]] SubcircuitCost evaluate_candidate(const netlist::Subcircuit& sc,
                                                  std::span<const sta::NodeMoments> boundary,
                                                  std::span<const sta::NodeMoments> downstream,
                                                  netlist::GateId center,
                                                  const liberty::Cell& candidate,
                                                  double lambda) const;

  /// Same, reusing @p scratch (one Scratch per thread). The GateId -> member
  /// map inside the scratch is restored on exit, so the reset cost per call
  /// is O(|subcircuit|) rather than O(nodes).
  [[nodiscard]] SubcircuitCost evaluate_candidate(const netlist::Subcircuit& sc,
                                                  std::span<const sta::NodeMoments> boundary,
                                                  std::span<const sta::NodeMoments> downstream,
                                                  netlist::GateId center,
                                                  const liberty::Cell& candidate,
                                                  double lambda, Scratch& scratch) const;

  [[nodiscard]] const EngineOptions& options() const { return options_; }

 private:
  const sta::TimingContext& ctx_;
  EngineOptions options_;
};

}  // namespace statsizer::fassta
