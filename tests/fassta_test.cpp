#include <algorithm>
#include <cmath>
#include <random>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "circuits/iscas_suite.h"
#include "fassta/engine.h"
#include "liberty/synthetic.h"
#include "netlist/subcircuit.h"
#include "ssta/fullssta.h"
#include "techmap/mapper.h"
#include "util/thread_pool.h"

namespace statsizer::fassta {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n) : nl(std::move(n)) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
  }
};

/// The full-sweep candidate score that Engine::score_candidate replaced,
/// frozen as its reference: gate_arrival over every gate on the level
/// schedule, with the center bound to @p candidate and the center's drivers
/// re-timed at their changed loads; all other arcs come from the snapshot.
sta::NodeMoments full_sweep_candidate(const Engine& eng, const sta::TimingContext& ctx,
                                      GateId center, const liberty::Cell& candidate) {
  const auto& nl = ctx.netlist();
  std::vector<sta::NodeMoments> arrival(nl.node_count());
  const auto arrival_of = [&](GateId f) -> const sta::NodeMoments& { return arrival[f]; };
  for (const GateId id : ctx.levelization().order_by_level) {
    const auto& g = nl.gate(id);
    if (g.fanins.empty()) continue;
    const bool is_center = (id == center);
    double load = ctx.load_ff(id);
    bool perturbed = is_center;
    if (!is_center && std::find(g.fanouts.begin(), g.fanouts.end(), center) != g.fanouts.end()) {
      load = ctx.load_ff_with_resize(id, center, candidate);
      perturbed = (load != ctx.load_ff(id));
    }
    const liberty::Cell* cell = perturbed ? (is_center ? &candidate : &ctx.cell(id)) : nullptr;
    arrival[id] = eng.gate_arrival(g, arrival_of, [&](std::size_t i) {
      if (cell == nullptr) return sta::NodeMoments{ctx.arc_delay_ps(id, i), ctx.arc_sigma_ps(id, i)};
      const double d = ctx.arc_delay_with(id, i, *cell, load);
      return sta::NodeMoments{d, ctx.sigma_for(*cell, d)};
    });
  }
  return eng.circuit_arrival(arrival_of);
}

TEST(Engine, TracksFullSsta) {
  Bench b(circuits::make_cla_adder(8));
  const Engine eng(*b.ctx);
  sta::NodeMoments circuit;
  const auto node = eng.run(&circuit);
  const auto full = ssta::run_fullssta(*b.ctx);
  EXPECT_NEAR(circuit.mean_ps, full.mean_ps, 0.02 * full.mean_ps);
  EXPECT_NEAR(circuit.sigma_ps, full.sigma_ps, 0.3 * full.sigma_ps);
  // Per-node means track closely too.
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    EXPECT_NEAR(node[id].mean_ps, full.node[id].mean_ps,
                0.03 * std::max(full.node[id].mean_ps, 10.0))
        << b.nl.gate(id).name;
  }
}

TEST(Engine, FastAndExactModesAgree) {
  Bench b(circuits::make_cla_adder(8));
  EngineOptions fast;
  fast.max_mode = MaxMode::kFast;
  EngineOptions exact;
  exact.max_mode = MaxMode::kExact;
  sta::NodeMoments mf, me;
  (void)Engine(*b.ctx, fast).run(&mf);
  (void)Engine(*b.ctx, exact).run(&me);
  EXPECT_NEAR(mf.mean_ps, me.mean_ps, 0.01 * me.mean_ps);
  EXPECT_NEAR(mf.sigma_ps, me.sigma_ps, 0.08 * me.sigma_ps + 0.2);
}

TEST(Engine, RunWithCurrentCellIsIdentity) {
  Bench b(circuits::make_ripple_adder(6));
  const Engine eng(*b.ctx);
  sta::NodeMoments base;
  const auto arrival = eng.run(&base);
  Engine::Scratch scratch;
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    const sta::NodeMoments m = eng.score_candidate(arrival, id, b.ctx->cell(id), scratch);
    EXPECT_NEAR(m.mean_ps, base.mean_ps, 1e-9) << b.nl.gate(id).name;
    EXPECT_NEAR(m.sigma_ps, base.sigma_ps, 1e-9) << b.nl.gate(id).name;
  }
}

TEST(Engine, RunWithCandidateMatchesCommittedResize) {
  Bench b(circuits::make_ripple_adder(6));
  const Engine eng(*b.ctx);
  // Pick a mid-circuit gate and its largest size.
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id) || b.nl.gate(id).fanouts.empty()) continue;
    const auto& group = b.lib.group(b.nl.gate(id).cell_group);
    const auto big = static_cast<std::uint16_t>(group.size_count() - 1);
    const liberty::Cell& cell = b.lib.cell_for(b.nl.gate(id).cell_group, big);
    Engine::Scratch scratch;
    const sta::NodeMoments what_if = eng.score_candidate(eng.run(), id, cell, scratch);

    b.nl.gate(id).size_index = big;
    b.ctx->update();
    sta::NodeMoments committed;
    (void)Engine(*b.ctx).run(&committed);
    // The what-if reuses snapshot slews, so allow a modest tolerance.
    EXPECT_NEAR(what_if.mean_ps, committed.mean_ps, 0.08 * committed.mean_ps);
    return;
  }
  FAIL();
}

TEST(Engine, DownstreamOfPoDriversIsZeroOrSideLoad) {
  Bench b(circuits::make_ripple_adder(4));
  const Engine eng(*b.ctx);
  const auto down = eng.compute_downstream();
  for (const auto& po : b.nl.outputs()) {
    // A pure PO driver (no gate fanouts) has zero downstream.
    if (b.nl.gate(po.driver).fanouts.empty()) {
      EXPECT_DOUBLE_EQ(down[po.driver].mean_ps, 0.0);
      EXPECT_DOUBLE_EQ(down[po.driver].sigma_ps, 0.0);
    }
  }
}

TEST(Engine, DownstreamOnChainIsSuffixSum) {
  Netlist nl("chain");
  GateId prev = nl.add_input("a");
  std::vector<GateId> gates;
  for (int i = 0; i < 6; ++i) {
    prev = nl.add_gate(netlist::GateFunc::kInv, {prev});
    gates.push_back(prev);
  }
  nl.add_output("y", prev);
  Bench b(std::move(nl));
  const Engine eng(*b.ctx);
  const auto down = eng.compute_downstream();
  // Walking backwards, downstream mean accumulates each arc delay.
  double expect = 0.0;
  for (auto it = b.ctx->topo_order().rbegin(); it != b.ctx->topo_order().rend(); ++it) {
    if (!b.ctx->has_cell(*it)) continue;
    EXPECT_NEAR(down[*it].mean_ps, expect, 1e-9);
    expect += b.ctx->arc_delay_ps(*it, 0);
  }
}

TEST(Engine, ArrivalPlusDownstreamIsPathInvariantOnChain) {
  Netlist nl("chain");
  GateId prev = nl.add_input("a");
  for (int i = 0; i < 8; ++i) prev = nl.add_gate(netlist::GateFunc::kInv, {prev});
  nl.add_output("y", prev);
  Bench b(std::move(nl));
  const Engine eng(*b.ctx);
  sta::NodeMoments circuit;
  const auto arrival = eng.run(&circuit);
  const auto down = eng.compute_downstream();
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    EXPECT_NEAR(arrival[id].mean_ps + down[id].mean_ps, circuit.mean_ps, 1e-6);
  }
}

TEST(Engine, SubcircuitStatusQuoConsistent) {
  Bench b(circuits::make_cla_adder(8));
  const Engine eng(*b.ctx);
  const auto full = ssta::run_fullssta(*b.ctx);
  const auto down = eng.compute_downstream();

  // Scoring the *current* cell must equal scoring through the projections
  // without any perturbation — and must never be negative or absurd.
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    const auto sc = netlist::extract_subcircuit(b.nl, id, 2, 2);
    const SubcircuitCost cost =
        eng.evaluate_candidate(sc, full.node, down, id, b.ctx->cell(id), 3.0);
    EXPECT_GT(cost.cost, 0.0);
    EXPECT_GT(cost.worst_mean_ps, 0.0);
    EXPECT_GE(cost.worst_sigma_ps, 0.0);
    EXPECT_NEAR(cost.cost, cost.worst_mean_ps + 3.0 * cost.worst_sigma_ps, 1e-9);
  }
}

TEST(Engine, LambdaScalesCost) {
  Bench b(circuits::make_ripple_adder(4));
  const Engine eng(*b.ctx);
  const auto full = ssta::run_fullssta(*b.ctx);
  const auto down = eng.compute_downstream();
  const GateId id = b.nl.outputs()[0].driver;
  const auto sc = netlist::extract_subcircuit(b.nl, id, 2, 2);
  const double c0 =
      eng.evaluate_candidate(sc, full.node, down, id, b.ctx->cell(id), 0.0).cost;
  const double c9 =
      eng.evaluate_candidate(sc, full.node, down, id, b.ctx->cell(id), 9.0).cost;
  EXPECT_GT(c9, c0);
}

TEST(Engine, DominanceThresholdOptionRespected) {
  // With an absurdly large threshold, no early-outs occur; results should
  // still be close to the default (the approximation is smooth).
  Bench b(circuits::make_cla_adder(8));
  EngineOptions no_shortcut;
  no_shortcut.dominance_threshold = 1e9;
  sta::NodeMoments a, c;
  (void)Engine(*b.ctx).run(&a);
  (void)Engine(*b.ctx, no_shortcut).run(&c);
  EXPECT_NEAR(a.mean_ps, c.mean_ps, 0.01 * c.mean_ps);
}

// ---------------------------------------------------------------------------
// Cone-limited candidate scoring vs the full-sweep reference, bit for bit,
// for every (gate, size) pair of a circuit: the sizer's plan and rescue
// prescores are these values, so any drift would move its trajectories.
// ---------------------------------------------------------------------------

/// Scrambles the sizes (seeded) so candidates perturb a mixed-drive netlist.
void scramble_sizes(Bench& b, unsigned seed) {
  std::mt19937 rng(seed);
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    const auto count = b.lib.group(b.nl.gate(id).cell_group).size_count();
    b.nl.gate(id).size_index = static_cast<std::uint16_t>(rng() % count);
  }
  b.ctx->update();
}

class FasstaCone : public ::testing::TestWithParam<std::string> {
 protected:
  static Netlist circuit() {
    return GetParam() == "ripple_adder" ? circuits::make_ripple_adder(6)
                                        : circuits::make_table1_circuit(GetParam());
  }
};

TEST_P(FasstaCone, EveryCandidateMatchesTheFullSweepBitwise) {
  Bench b(circuit());
  scramble_sizes(b, 7);
  const Engine eng(*b.ctx);
  sta::NodeMoments circuit_base;
  const auto base = eng.run(&circuit_base);
  Engine::Scratch scratch;  // one scratch across every call: the reset is O(cone)

  std::size_t scored = 0;
  std::size_t po_drivers = 0;
  std::size_t pi_driven = 0;
  std::size_t bound_cell = 0;
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    const auto& g = b.nl.gate(id);
    const bool drives_po = std::any_of(b.nl.outputs().begin(), b.nl.outputs().end(),
                                       [&](const auto& po) { return po.driver == id; });
    const bool has_pi_driver = std::any_of(g.fanins.begin(), g.fanins.end(), [&](GateId f) {
      return b.nl.gate(f).fanins.empty();
    });
    const auto& group = b.lib.group(g.cell_group);
    for (std::uint16_t s = 0; s < group.size_count(); ++s) {
      const liberty::Cell& cell = b.lib.cell_for(g.cell_group, s);
      const sta::NodeMoments cone = eng.score_candidate(base, id, cell, scratch);
      const sta::NodeMoments full = full_sweep_candidate(eng, *b.ctx, id, cell);
      EXPECT_EQ(cone.mean_ps, full.mean_ps) << g.name << " size " << s;
      EXPECT_EQ(cone.sigma_ps, full.sigma_ps) << g.name << " size " << s;
      EXPECT_FALSE(scratch.cone.empty()) << g.name;  // the center is always re-timed
      ++scored;
      po_drivers += drives_po ? 1 : 0;
      pi_driven += has_pi_driver ? 1 : 0;
      if (s == g.size_index) {
        // The bound cell: re-timed through the what-if path, but the same
        // circuit up to that path's rounding.
        ++bound_cell;
        EXPECT_NEAR(cone.mean_ps, circuit_base.mean_ps, 1e-9 * circuit_base.mean_ps) << g.name;
      }
    }
  }
  EXPECT_GT(scored, 0u);
  EXPECT_GT(po_drivers, 0u);  // coverage: PO drivers and PI-driven gates are in
  EXPECT_GT(pi_driven, 0u);
  EXPECT_GT(bound_cell, 0u);
  // The scratch is clean between calls.
  EXPECT_TRUE(std::all_of(scratch.in_cone.begin(), scratch.in_cone.end(),
                          [](std::uint8_t m) { return m == 0; }));
}

TEST_P(FasstaCone, ConeIsTheDirtyClosureOnly) {
  Bench b(circuit());
  scramble_sizes(b, 11);
  const Engine eng(*b.ctx);
  const auto base = eng.run();
  Engine::Scratch scratch;
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    const auto& g = b.nl.gate(id);
    const auto big = static_cast<std::uint16_t>(b.lib.group(g.cell_group).size_count() - 1);
    (void)eng.score_candidate(base, id, b.lib.cell_for(g.cell_group, big), scratch);
    const std::vector<GateId>& cone = scratch.cone;
    ASSERT_FALSE(cone.empty());
    EXPECT_LT(cone.size(), b.nl.node_count());
    // Level order, every member mapped, and the center present.
    const auto& level_of = b.ctx->levelization().level_of;
    for (std::size_t k = 1; k < cone.size(); ++k) {
      EXPECT_LE(level_of[cone[k - 1]], level_of[cone[k]]);
    }
    for (const GateId c : cone) EXPECT_FALSE(b.nl.gate(c).fanins.empty());
    EXPECT_NE(std::find(cone.begin(), cone.end(), id), cone.end());
  }
}

TEST_P(FasstaCone, ConcurrentScoringMatchesSerial) {
  Bench b(circuit());
  scramble_sizes(b, 3);
  const Engine eng(*b.ctx);
  const auto base = eng.run();
  std::vector<std::pair<GateId, const liberty::Cell*>> jobs;
  for (GateId id = 0; id < b.nl.node_count(); ++id) {
    if (!b.ctx->has_cell(id)) continue;
    const auto& group = b.lib.group(b.nl.gate(id).cell_group);
    for (std::uint16_t s = 0; s < group.size_count(); ++s) {
      jobs.emplace_back(id, &b.lib.cell_for(b.nl.gate(id).cell_group, s));
    }
  }
  const auto score_all = [&](std::size_t threads) {
    std::vector<double> out(2 * jobs.size());
    util::parallel_for(jobs.size(), 8, threads, [&](std::size_t begin, std::size_t end,
                                                    std::size_t) {
      Engine::Scratch scratch;
      for (std::size_t i = begin; i < end; ++i) {
        const sta::NodeMoments m = eng.score_candidate(base, jobs[i].first, *jobs[i].second,
                                                       scratch);
        out[2 * i] = m.mean_ps;
        out[2 * i + 1] = m.sigma_ps;
      }
    });
    return out;
  };
  const auto serial = score_all(1);
  EXPECT_EQ(score_all(4), serial);
}

INSTANTIATE_TEST_SUITE_P(Circuits, FasstaCone,
                         ::testing::Values("ripple_adder", "c432", "c880"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace statsizer::fassta
