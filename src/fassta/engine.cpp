#include "fassta/engine.h"

#include <algorithm>
#include <cmath>

#include "fassta/clark.h"

namespace statsizer::fassta {

using netlist::GateId;
using sta::NodeMoments;

Engine::Engine(const sta::TimingContext& ctx, EngineOptions options)
    : ctx_(ctx), options_(options) {}

NodeMoments Engine::stat_max(const NodeMoments& a, const NodeMoments& b) const {
  if (options_.max_mode == MaxMode::kFast) {
    // Dominance early-outs with the configured threshold (2.6 in the paper —
    // the point where the quadratic erf approximation saturates).
    const int dom = dominance(a.mean_ps, a.sigma_ps, b.mean_ps, b.sigma_ps,
                              options_.dominance_threshold);
    if (dom > 0) return a;
    if (dom < 0) return b;
    const ClarkResult r = clark_max_fast(a.mean_ps, a.sigma_ps, b.mean_ps, b.sigma_ps);
    return NodeMoments{r.mean, std::sqrt(r.var)};
  }
  const ClarkResult r = clark_max_exact(a.mean_ps, a.sigma_ps, b.mean_ps, b.sigma_ps);
  return NodeMoments{r.mean, std::sqrt(r.var)};
}

std::vector<NodeMoments> Engine::run(NodeMoments* circuit) const {
  const auto& nl = ctx_.netlist();
  std::vector<NodeMoments> arrival(nl.node_count());
  const auto arrival_of = [&](GateId f) -> const NodeMoments& { return arrival[f]; };
  sta::run_levels(ctx_.full_schedule(), "fassta/run/level", [&](GateId id) {
    const auto& g = nl.gate(id);
    if (g.fanins.empty()) return;  // PI/constant: arrival (0, 0)
    arrival[id] = gate_arrival(g, arrival_of, [&](std::size_t i) {
      return NodeMoments{ctx_.arc_delay_ps(id, i), ctx_.arc_sigma_ps(id, i)};
    });
  });
  if (circuit != nullptr) *circuit = circuit_arrival(arrival_of);
  return arrival;
}

NodeMoments Engine::score_candidate(std::span<const NodeMoments> base, GateId center,
                                    const liberty::Cell& candidate, Scratch& scratch) const {
  const auto& nl = ctx_.netlist();
  // in_cone marks: 1 = downstream (snapshot arcs, new inputs), 2 = perturbed
  // (the center, or a driver whose load the candidate moves: arcs recomputed).
  constexpr std::uint8_t kDownstream = 1;
  constexpr std::uint8_t kPerturbed = 2;
  if (scratch.in_cone.size() != nl.node_count()) {
    scratch.in_cone.assign(nl.node_count(), 0);
    scratch.arrival.resize(nl.node_count());
  }
  std::vector<std::uint8_t>& in_cone = scratch.in_cone;
  std::vector<GateId>& cone = scratch.cone;
  cone.clear();
  const auto mark = [&](GateId g, std::uint8_t how) {
    if (in_cone[g] == 0) {
      in_cone[g] = how;
      cone.push_back(g);
    }
  };

  // Seeds. A PI/constant has no arcs (its arrival stays (0, 0)), and a
  // driver whose load comes out unchanged keeps its snapshot arcs, so
  // neither can change an arrival.
  const auto& cg = nl.gate(center);
  if (!cg.fanins.empty()) mark(center, kPerturbed);
  for (const GateId d : cg.fanins) {
    if (in_cone[d] != 0 || nl.gate(d).fanins.empty()) continue;
    if (ctx_.load_ff_with_resize(d, center, candidate) != ctx_.load_ff(d)) mark(d, kPerturbed);
  }
  // Fanout closure; `cone` doubles as the worklist.
  for (std::size_t head = 0; head < cone.size(); ++head) {
    for (const GateId f : nl.gate(cone[head]).fanouts) mark(f, kDownstream);
  }
  // Level order (fanins strictly below); the id tiebreak only fixes the
  // order, the values cannot depend on it.
  const auto& level_of = ctx_.levelization().level_of;
  std::sort(cone.begin(), cone.end(), [&](GateId a, GateId b) {
    return level_of[a] != level_of[b] ? level_of[a] < level_of[b] : a < b;
  });

  std::vector<NodeMoments>& arrival = scratch.arrival;
  const auto arrival_of = [&](GateId f) -> const NodeMoments& {
    return in_cone[f] != 0 ? arrival[f] : base[f];
  };
  for (const GateId id : cone) {
    const auto& g = nl.gate(id);
    if (in_cone[id] == kDownstream) {
      arrival[id] = gate_arrival(g, arrival_of, [&](std::size_t i) {
        return NodeMoments{ctx_.arc_delay_ps(id, i), ctx_.arc_sigma_ps(id, i)};
      });
      continue;
    }
    // Re-timed: the center on the candidate at its own load, a driver on its
    // bound cell at its new load.
    const bool is_center = id == center;
    const liberty::Cell& cell = is_center ? candidate : ctx_.cell(id);
    const double load =
        is_center ? ctx_.load_ff(id) : ctx_.load_ff_with_resize(id, center, candidate);
    arrival[id] = gate_arrival(g, arrival_of, [&](std::size_t i) {
      const double d = ctx_.arc_delay_with(id, i, cell, load);
      return NodeMoments{d, ctx_.sigma_for(cell, d)};
    });
  }
  const NodeMoments out = circuit_arrival(arrival_of);
  for (const GateId id : cone) in_cone[id] = 0;
  return out;
}

std::vector<NodeMoments> Engine::compute_downstream() const {
  const auto& nl = ctx_.netlist();
  std::vector<NodeMoments> down(nl.node_count(), NodeMoments{0.0, 0.0});
  std::vector<bool> seeded(nl.node_count(), false);
  for (const auto& po : nl.outputs()) seeded[po.driver] = true;  // downstream = 0

  const auto& order = ctx_.topo_order();
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    const GateId id = *it;
    NodeMoments acc{};
    bool first = !seeded[id];  // if a PO driver, the (0,0) observation competes
    for (const GateId consumer : nl.gate(id).fanouts) {
      const auto& cg = nl.gate(consumer);
      for (std::size_t i = 0; i < cg.fanins.size(); ++i) {
        if (cg.fanins[i] != id) continue;
        const NodeMoments through = stat_sum(
            down[consumer],
            NodeMoments{ctx_.arc_delay_ps(consumer, i), ctx_.arc_sigma_ps(consumer, i)});
        acc = first ? through : stat_max(acc, through);
        first = false;
      }
    }
    if (!first) down[id] = acc;  // seeded nodes started from the (0,0) observation
  }
  return down;
}

SubcircuitCost Engine::evaluate_candidate(const netlist::Subcircuit& sc,
                                          std::span<const NodeMoments> boundary,
                                          std::span<const NodeMoments> downstream,
                                          GateId center, const liberty::Cell& candidate,
                                          double lambda) const {
  Scratch scratch;
  return evaluate_candidate(sc, boundary, downstream, center, candidate, lambda, scratch);
}

SubcircuitCost Engine::evaluate_candidate(const netlist::Subcircuit& sc,
                                          std::span<const NodeMoments> boundary,
                                          std::span<const NodeMoments> downstream,
                                          GateId center, const liberty::Cell& candidate,
                                          double lambda, Scratch& scratch) const {
  const auto& nl = ctx_.netlist();

  // Local arrival moments for members only, indexed by position in sc.gates.
  // A parallel map from GateId -> local index keeps lookups O(1). The map is
  // kept all-UINT32_MAX between calls: only the member entries are set here
  // and restored before returning, so a reused scratch pays O(|sc|), not
  // O(nodes), per candidate.
  std::vector<NodeMoments>& local = scratch.local;
  local.assign(sc.gates.size(), NodeMoments{});
  std::vector<std::uint32_t>& local_index = scratch.local_index;
  if (local_index.size() != nl.node_count()) {
    local_index.assign(nl.node_count(), UINT32_MAX);
  }
  for (std::uint32_t i = 0; i < sc.gates.size(); ++i) local_index[sc.gates[i]] = i;

  const auto arrival_of = [&](GateId id) -> NodeMoments {
    const std::uint32_t li = local_index[id];
    if (li != UINT32_MAX) return local[li];
    return boundary[id];
  };

  for (std::uint32_t gi = 0; gi < sc.gates.size(); ++gi) {
    const GateId id = sc.gates[gi];
    const auto& g = nl.gate(id);
    const bool is_center = (id == center);
    const liberty::Cell& cell = is_center ? candidate : ctx_.cell(id);

    // Load: the only load perturbed by the candidate is on gates driving the
    // center (its input pin caps change). The center's own load is untouched.
    double load = ctx_.load_ff(id);
    if (!is_center) {
      const auto& outs = g.fanouts;
      if (std::find(outs.begin(), outs.end(), center) != outs.end()) {
        load = ctx_.load_ff_with_resize(id, center, candidate);
      }
    }
    // Recompute the arc delay only where the candidate perturbs it; reuse
    // the snapshot everywhere else (this is what makes FASSTA fast).
    const bool perturbed = is_center || load != ctx_.load_ff(id);
    local[gi] = gate_arrival(g, arrival_of, [&](std::size_t i) {
      const double d =
          perturbed ? ctx_.arc_delay_with(id, i, cell, load) : ctx_.arc_delay_ps(id, i);
      return NodeMoments{d, ctx_.sigma_for(cell, d)};
    });
  }

  SubcircuitCost result;
  bool first = true;
  for (const GateId out : sc.outputs) {
    // Project the window output to the primary outputs: local arrival plus
    // the node's downstream potential (independent path segments => RSS).
    const NodeMoments m = stat_sum(local[local_index[out]], downstream[out]);
    const double cost = m.mean_ps + lambda * m.sigma_ps;
    if (first || cost > result.cost) {
      result.cost = cost;
      result.worst_mean_ps = m.mean_ps;
      result.worst_sigma_ps = m.sigma_ps;
      first = false;
    }
  }

  for (const GateId g : sc.gates) local_index[g] = UINT32_MAX;
  return result;
}

}  // namespace statsizer::fassta
