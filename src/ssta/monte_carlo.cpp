#include "ssta/monte_carlo.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <mutex>

#include "sta/dsta.h"
#include "util/exec.h"
#include "util/numeric.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace statsizer::ssta {

using netlist::GateId;

namespace {

// Samples per parallel_for chunk. Fixed (never a function of the thread
// count) so per-chunk partial statistics merge to the same floating-point
// result for any number of workers. Large enough to amortize the per-chunk
// arrival-vector allocation, small enough to load-balance across threads.
constexpr std::size_t kChunkSamples = 64;

}  // namespace

MonteCarloResult run_monte_carlo(const sta::TimingContext& ctx,
                                 const MonteCarloOptions& options) {
  const auto& nl = ctx.netlist();
  const auto& var = ctx.variation();
  const auto& pi_arrival = ctx.constraints().input_arrival_ps;

  MonteCarloResult result;
  result.circuit_samples.resize(options.samples, 0.0);
  if (options.samples == 0) return result;

  // Per-node accumulators with a streaming in-order merge: each finished
  // chunk's partials are folded in strictly ascending chunk order (chunks
  // completing early wait in `pending`), so the result is bitwise-identical
  // for any thread count while memory stays bounded by the out-of-order
  // completion window (~thread count) instead of the total chunk count.
  std::vector<util::RunningStats> node_stats;
  std::mutex merge_mutex;
  std::size_t next_merge_chunk = 0;
  std::map<std::size_t, std::vector<util::RunningStats>> pending;
  if (options.per_node_stats) node_stats.resize(nl.node_count());

  // Cooperative control at sample-chunk granularity, but only when the
  // chunk loop runs inline in deterministic order (threads == 1, the
  // serving layer's configuration): with pool workers in play the caller
  // would drain a scheduling-dependent subset of chunks, making fault-
  // injection hit counts nondeterministic. Workers carry no ExecContext, so
  // gating on the option (not the thread identity) keeps the semantics
  // explicit.
  const bool cooperative = options.threads == 1;

  util::parallel_for(
      options.samples, kChunkSamples, options.threads,
      [&](std::size_t begin, std::size_t end, std::size_t chunk) {
        if (cooperative) util::checkpoint("ssta/mc/chunk");
        std::vector<double> arrival(nl.node_count(), 0.0);
        const auto arrival_of = [&](GateId f) { return arrival[f]; };
        std::vector<util::RunningStats> local_node_stats;
        std::vector<util::RunningStats>* node_stats_ptr = nullptr;
        if (options.per_node_stats) {
          local_node_stats.resize(nl.node_count());
          node_stats_ptr = &local_node_stats;
        }
        for (std::size_t s = begin; s < end; ++s) {
          // Counter-based stream: sample s sees the same draws no matter
          // which thread runs it.
          util::Rng rng(util::stream_seed(options.seed, s));
          const double global_z = rng.normal();
          // The DSTA forward kernel with sampled arc delays. Topological
          // order and the kernel's arc order fix the draw order.
          for (const GateId id : ctx.topo_order()) {
            const auto& g = nl.gate(id);
            // Constrained primary inputs (set_input_delay) launch at their
            // fixed offset; the guard keeps the unconstrained path bitwise.
            double arr = (g.fanins.empty() && !pi_arrival.empty()) ? pi_arrival[id] : 0.0;
            if (!g.fanins.empty()) {
              arr = sta::latest_arrival(g, arrival_of, [&](std::size_t i) {
                return var.sample_delay_ps(ctx.arc_delay_ps(id, i), ctx.drive(id), global_z,
                                           rng);
              });
            }
            arrival[id] = arr;
            if (node_stats_ptr != nullptr) (*node_stats_ptr)[id].add(arr);
          }
          double circuit = 0.0;
          for (const auto& po : nl.outputs()) {
            circuit = std::max(circuit, arrival[po.driver]);
          }
          result.circuit_samples[s] = circuit;
        }
        if (options.per_node_stats) {
          const std::lock_guard<std::mutex> lock(merge_mutex);
          // lint-ok: shared-mutable-capture merge_mutex serializes this block; folds run in ascending chunk order, so the result is thread-count-invariant
          pending.emplace(chunk, std::move(local_node_stats));
          while (!pending.empty() && pending.begin()->first == next_merge_chunk) {
            const auto& ready = pending.begin()->second;
            for (GateId id = 0; id < nl.node_count(); ++id) {
              node_stats[id].merge(ready[id]);
            }
            // lint-ok: shared-mutable-capture same critical section as above
            pending.erase(pending.begin());
            // lint-ok: shared-mutable-capture same critical section as above
            ++next_merge_chunk;
          }
        }
      });

  // Circuit moments: one serial Welford pass over the sample vector, in
  // sample order — identical for any thread count.
  util::RunningStats circuit_stats;
  for (const double x : result.circuit_samples) circuit_stats.add(x);
  result.mean_ps = circuit_stats.mean();
  result.sigma_ps = circuit_stats.stddev();

  if (options.per_node_stats) {
    result.node.resize(nl.node_count());
    for (GateId id = 0; id < nl.node_count(); ++id) {
      result.node[id] = sta::NodeMoments{node_stats[id].mean(), node_stats[id].stddev()};
    }
  }
  return result;
}

}  // namespace statsizer::ssta
