#include "timing/cone.h"

namespace statsizer::timing::detail {

using netlist::GateId;

namespace {
// Chunk size of the snapshot half's parallel levels (as update()'s relax).
constexpr std::size_t kRelaxChunk = 16;
}  // namespace

void ConeSnapshot::propagate(const sta::TimingContext& ctx, std::span<const Resize> resizes,
                             std::size_t threads) {
  const auto& nl = ctx.netlist();
  const std::size_t n = nl.node_count();

  cand.assign(n, nullptr);
  for (const Resize& r : resizes) {
    cand[r.gate] = &ctx.library().cell_for(nl.gate(r.gate).cell_group, r.size);
  }
  const auto cell_of = [&](GateId consumer) -> const liberty::Cell& {
    const liberty::Cell* c = cand[consumer];
    return c != nullptr ? *c : ctx.cell(consumer);
  };

  // Seeds: every resized gate (its arc delays change) and each of its
  // drivers (their loads change; for mapped drivers that also means delays
  // and slews). Unconditionally recomputing a driver whose cap delta happens
  // to be zero is harmless: the recomputation reproduces the base bitwise.
  dirty.assign(n, 0);
  load_dirty.assign(n, 0);
  load.assign(n, 0.0);
  slew.assign(n, 0.0);
  arc_delay.assign(ctx.arc_count(), 0.0);
  arc_sigma.assign(ctx.arc_count(), 0.0);
  level_gates.clear();
  const auto mark = [&](GateId g) {
    if (!dirty[g]) {
      dirty[g] = 1;
      level_gates.push_back(g);
    }
  };
  for (const Resize& r : resizes) {
    mark(r.gate);
    for (const GateId d : nl.gate(r.gate).fanins) {
      if (!load_dirty[d]) {
        load_dirty[d] = 1;
        // The shared fold (TimingContext::fold_load): the full sum in
        // update()'s exact accumulation order, candidates substituted.
        load[d] = ctx.fold_load(d, cell_of);
      }
      // A PI/constant driver's load feeds no arc: patch it, don't propagate.
      if (ctx.has_cell(d)) mark(d);
    }
  }
  // Downstream closure: a changed slew or arrival dirties every fanout.
  // level_gates doubles as the worklist (every marked gate is appended once).
  for (std::size_t head = 0; head < level_gates.size(); ++head) {
    for (const GateId f : nl.gate(level_gates[head]).fanouts) mark(f);
  }

  // Bucket the dirty set by level (counting sort; stable, so the schedule is
  // a pure function of the resize set).
  const netlist::Levelization& lv = ctx.levelization();
  level_offset.assign(lv.level_count() + 1, 0);
  for (const GateId g : level_gates) ++level_offset[lv.level_of[g] + 1];
  for (std::size_t l = 1; l < level_offset.size(); ++l) level_offset[l] += level_offset[l - 1];
  std::vector<std::uint32_t> cursor(level_offset.begin(), level_offset.end() - 1);
  std::vector<GateId> discovered = std::move(level_gates);
  level_gates.assign(discovered.size(), netlist::kNoGate);
  slot.resize(n);
  for (const GateId g : discovered) {
    slot[g] = cursor[lv.level_of[g]]++;
    level_gates[slot[g]] = g;
  }

  // The relax kernel update() runs, over the dirty schedule: loads from the
  // overlay where re-folded, fanin slews from the overlay where dirty.
  const auto slew_of = [&](GateId f) { return dirty[f] ? slew[f] : ctx.slew_ps(f); };
  sta::run_levels(schedule(), "timing/cone/level", threads,
                  ctx.options().min_level_width_for_parallel, kRelaxChunk, [&](GateId id) {
                    const double ld = load_dirty[id] ? load[id] : ctx.load_ff(id);
                    const std::uint32_t off = ctx.arc_offset(id);
                    slew[id] = ctx.relax(id, cell_of(id), ld, slew_of, arc_delay.data() + off,
                                         arc_sigma.data() + off);
                  });
}

ConeSpeculation::ConeSpeculation(BoundAnalyzer& owner, sta::TimingContext& ctx,
                                 std::span<const Resize> resizes, std::size_t threads)
    : owner_(owner), ctx_(ctx), epoch_(owner.epoch()), threads_(threads) {
  resizes_.assign(resizes.begin(), resizes.end());
}

const Summary& ConeSpeculation::score() {
  if (scored_) return result_;  // cached scores stay readable after invalidation
  owner_.guard_epoch(epoch_);
  cone_.propagate(ctx_, resizes_, threads_);
  propagate_arrivals();
  scored_ = true;
  return result_;
}

void ConeSpeculation::commit() {
  if (committed_) return;  // uniform contract: a second commit is a no-op
  owner_.guard_epoch(epoch_);
  if (!scored_) (void)score();  // must run against the pre-resize snapshot
  auto& nl = ctx_.mutable_netlist();
  for (const Resize& r : resizes_) nl.gate(r.gate).size_index = r.size;
  ctx_.apply_snapshot_patch(cone_.dirty, cone_.load_dirty, cone_.load, cone_.slew,
                            cone_.arc_delay, cone_.arc_sigma);
  merge_arrivals();  // dirty nodes of the base summary
  owner_.base_.mean_ps = result_.mean_ps;
  owner_.base_.sigma_ps = result_.sigma_ps;
  ++owner_.epoch_;  // siblings' base is gone
  committed_ = true;
}

}  // namespace statsizer::timing::detail
