// Shared machinery for *exact* incremental what-if speculations. Internal to
// src/timing (not installed).
//
// An exact what-if is the full propagation restricted to the resize set's
// fanout cone: every engine runs its one per-gate kernel on the one level
// schedule (sta::run_levels), and the cone only decides which gates are
// scheduled and where their inputs come from. ConeSnapshot is the snapshot
// half — the dirty closure of a resize set plus the loads, slews, arc delays
// and arc sigmas recomputed over it by TimingContext::relax, the kernel
// update() runs. Loads are re-folded through the context's shared per-driver
// term lists (TimingContext::fold_load — floating-point addition is not
// associative, so adding a cap *delta* to the cached load would drift by an
// ULP; the full sum is re-folded in update()'s exact accumulation order with
// candidate cells substituted). Values outside the cone are untouched (they
// are bitwise-unchanged by the resizes), so an engine that runs its kernel
// over the cone's schedule — reading everything else from its cached base —
// reproduces a from-scratch update() + full run bitwise.
// TimingContext::apply_snapshot_patch() consumes the same arrays to commit
// the overlay in place of a full update().
//
// ConeSpeculation is the one speculation shape on top of it: the epoch and
// score-cache discipline, the snapshot half, and the incremental commit.
// The FULLSSTA, FASSTA and DSTA analyzers each add only their engine half.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "timing/analyzer_impl.h"

namespace statsizer::timing::detail {

/// The snapshot overlay of one exact what-if: dirty flags, the dirty set on
/// the level schedule, plus the recomputed load/slew/arc values for the
/// resize set's fanout cone. Dense (GateId / arc-slot indexed) so the arrays
/// drop straight into TimingContext::apply_snapshot_patch(); each live
/// speculation holds O(nodes + arcs) overlay memory, so callers scoring many
/// speculations concurrently should bound how many they hold at once.
struct ConeSnapshot {
  /// Candidate cell per gate (nullptr = keep the bound cell).
  std::vector<const liberty::Cell*> cand;
  /// Nodes whose slews/arc delays/arc sigmas are recomputed (the resized
  /// gates, their mapped drivers, and the downstream fanout closure). Every
  /// dirty node is a mapped gate, so it has fanins.
  std::vector<std::uint8_t> dirty;
  /// Nodes whose loads are recomputed: every driver of a resized gate,
  /// including unmapped ones (a primary input's load feeds no arc, but
  /// apply_snapshot_patch must still write it to stay bitwise-equal to a
  /// full update()).
  std::vector<std::uint8_t> load_dirty;
  std::vector<double> load;       ///< valid where load_dirty
  std::vector<double> slew;       ///< valid where dirty
  std::vector<double> arc_delay;  ///< dense, ctx.arc_offset() indexing, valid where dirty
  std::vector<double> arc_sigma;
  /// The dirty set bucketed by the context's levels (CSR, one bucket per
  /// level, empty buckets for clean levels): the schedule every engine half
  /// replays over.
  std::vector<std::uint32_t> level_offset;
  std::vector<netlist::GateId> level_gates;
  /// Position of each dirty node in level_gates (valid where dirty): the
  /// cone slot engine halves index their compact overlays by.
  std::vector<std::uint32_t> slot;

  [[nodiscard]] sta::LevelSchedule schedule() const {
    return sta::LevelSchedule{level_offset, level_gates};
  }

  /// Recomputes the cone for @p resizes against @p ctx's current snapshot:
  /// the dirty closure, the shared load fold, then TimingContext::relax over
  /// schedule() @p threads wide (bitwise-identical for any value). Callers
  /// already running inside a pool worker — speculations scoring
  /// concurrently, or an ordered scan's caller — execute inline regardless.
  void propagate(const sta::TimingContext& ctx, std::span<const Resize> resizes,
                 std::size_t threads);
};

/// The exact incremental speculation: score() runs the snapshot half and
/// then the engine half (propagate_arrivals) over the cone's schedule; the
/// overlay is private, so speculations from one base score concurrently.
/// commit() installs the overlay incrementally — sizes into the netlist, the
/// snapshot half through TimingContext::apply_snapshot_patch() (bitwise-equal
/// to a full update()), the arrival half through merge_arrivals() — with no
/// O(E) re-run, then bumps the owner's epoch.
class ConeSpeculation : public Speculation {
 public:
  const Summary& score() final;
  void commit() final;
  void rollback() final {}  // the overlay never touched shared state

 protected:
  /// @p threads is the snapshot half's schedule width.
  ConeSpeculation(BoundAnalyzer& owner, sta::TimingContext& ctx,
                  std::span<const Resize> resizes, std::size_t threads);

  /// Engine half of score(): run the engine's gate kernel over
  /// cone_.schedule() and fill result_.mean_ps / result_.sigma_ps.
  virtual void propagate_arrivals() = 0;
  /// Commit half: write the overlay arrivals (dirty nodes, plus any
  /// circuit-level payload) into the owner's base summary.
  virtual void merge_arrivals() = 0;

  /// The owner's base summary, for merge_arrivals().
  [[nodiscard]] Summary& base() const { return owner_.base_; }

  BoundAnalyzer& owner_;
  sta::TimingContext& ctx_;
  std::uint64_t epoch_ = 0;
  std::size_t threads_ = 1;
  ConeSnapshot cone_;
  Summary result_;
  bool scored_ = false;
  bool committed_ = false;
};

}  // namespace statsizer::timing::detail
