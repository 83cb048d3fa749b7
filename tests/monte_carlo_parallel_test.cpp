// Parallel Monte-Carlo SSTA: the sharded engine must be bitwise-identical to
// the serial one for any thread count (counter-based per-sample RNG streams),
// and its moments must track analytic expectations on a max-free circuit.
#include <atomic>
#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "circuits/generators.h"
#include "liberty/synthetic.h"
#include "ssta/monte_carlo.h"
#include "techmap/mapper.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace statsizer::ssta {
namespace {

using netlist::GateId;
using netlist::Netlist;

struct Bench {
  Netlist nl;
  liberty::Library lib = liberty::build_synthetic_90nm();
  variation::VariationModel var;
  std::unique_ptr<sta::TimingContext> ctx;

  explicit Bench(Netlist n, variation::VariationParams vp = {}) : nl(std::move(n)), var(vp) {
    auto s = techmap::map_to_library(nl, lib);
    if (!s.ok()) throw std::logic_error(s.message());
    ctx = std::make_unique<sta::TimingContext>(nl, lib, var, sta::TimingOptions{});
  }
};

Netlist inverter_chain(unsigned length) {
  Netlist nl("chain");
  GateId prev = nl.add_input("a");
  for (unsigned i = 0; i < length; ++i) prev = nl.add_gate(netlist::GateFunc::kInv, {prev});
  nl.add_output("y", prev);
  return nl;
}

TEST(MonteCarloParallel, BitwiseIdenticalAcrossThreadCounts) {
  Bench b(circuits::make_cla_adder(8));
  MonteCarloOptions serial;
  serial.samples = 3000;
  serial.seed = 99;
  serial.threads = 1;
  serial.per_node_stats = true;
  const auto ref = run_monte_carlo(*b.ctx, serial);

  for (const std::size_t threads : {2u, 3u, 4u, 8u, 0u}) {
    MonteCarloOptions opt = serial;
    opt.threads = threads;
    const auto r = run_monte_carlo(*b.ctx, opt);
    EXPECT_EQ(r.circuit_samples, ref.circuit_samples) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.mean_ps, ref.mean_ps) << "threads=" << threads;
    EXPECT_DOUBLE_EQ(r.sigma_ps, ref.sigma_ps) << "threads=" << threads;
    ASSERT_EQ(r.node.size(), ref.node.size());
    for (std::size_t i = 0; i < ref.node.size(); ++i) {
      EXPECT_DOUBLE_EQ(r.node[i].mean_ps, ref.node[i].mean_ps) << "node " << i;
      EXPECT_DOUBLE_EQ(r.node[i].sigma_ps, ref.node[i].sigma_ps) << "node " << i;
    }
  }
}

TEST(MonteCarloParallel, ThreadSweepMatchesAnalyticChainMoments) {
  // An inverter chain has no max: circuit delay = sum of independent arc
  // delays, so mean = sum of nominals and var = sum of arc variances. Mild
  // variation keeps the sampling truncation (delay >= 5% of nominal) a
  // > 4-sigma tail event, so the analytic Gaussian moments apply.
  variation::VariationParams vp;
  vp.proportional_coeff = 0.15;
  Bench b(inverter_chain(20), vp);
  double mean = 0.0;
  double var = 0.0;
  for (const GateId id : b.ctx->topo_order()) {
    if (!b.ctx->has_cell(id)) continue;
    mean += b.ctx->arc_delay_ps(id, 0);
    var += b.ctx->arc_sigma_ps(id, 0) * b.ctx->arc_sigma_ps(id, 0);
  }
  const double sigma = std::sqrt(var);

  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    MonteCarloOptions opt;
    opt.samples = 20000;
    opt.seed = 7;
    opt.threads = threads;
    const auto r = run_monte_carlo(*b.ctx, opt);
    // 3-sigma statistical tolerance on the mean estimator plus 1% headroom
    // for the truncation bias.
    const double mean_tol = 3.0 * sigma / std::sqrt(double(opt.samples)) + 0.01 * mean;
    EXPECT_NEAR(r.mean_ps, mean, mean_tol) << "threads=" << threads;
    EXPECT_NEAR(r.sigma_ps, sigma, 0.05 * sigma) << "threads=" << threads;
  }
}

TEST(MonteCarloParallel, SeedChangesSamples) {
  Bench b(inverter_chain(5));
  MonteCarloOptions a;
  a.samples = 200;
  a.seed = 1;
  a.threads = 4;
  MonteCarloOptions c = a;
  c.seed = 2;
  const auto ra = run_monte_carlo(*b.ctx, a);
  const auto rc = run_monte_carlo(*b.ctx, c);
  EXPECT_NE(ra.circuit_samples, rc.circuit_samples);
}

TEST(MonteCarloParallel, ZeroSamples) {
  Bench b(inverter_chain(3));
  MonteCarloOptions opt;
  opt.samples = 0;
  opt.threads = 4;
  const auto r = run_monte_carlo(*b.ctx, opt);
  EXPECT_EQ(r.circuit_samples.size(), 0u);
  EXPECT_EQ(r.mean_ps, 0.0);
  EXPECT_EQ(r.sigma_ps, 0.0);
}

// ---------------------------------------------------------------------------
// The underlying primitives.
// ---------------------------------------------------------------------------

TEST(StreamSeed, IndependentOfOrderAndDistinct) {
  EXPECT_EQ(util::stream_seed(42, 7), util::stream_seed(42, 7));
  EXPECT_NE(util::stream_seed(42, 7), util::stream_seed(42, 8));
  EXPECT_NE(util::stream_seed(42, 7), util::stream_seed(43, 7));
  // Consecutive indices must not produce correlated low bits.
  EXPECT_NE(util::stream_seed(1, 0) & 0xffff, util::stream_seed(1, 1) & 0xffff);
}

TEST(ParallelFor, CoversEveryIndexExactlyOnce) {
  std::vector<std::atomic<int>> hits(1000);
  for (auto& h : hits) h.store(0);
  util::parallel_for(hits.size(), 7, 4, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(ParallelFor, ChunkGeometryIndependentOfThreads) {
  for (const std::size_t threads : {1u, 2u, 8u}) {
    std::vector<std::pair<std::size_t, std::size_t>> ranges(
        util::detail::chunk_count(100, 16));
    util::parallel_for(100, 16, threads,
                       [&](std::size_t begin, std::size_t end, std::size_t chunk) {
                         ranges[chunk] = {begin, end};
                       });
    ASSERT_EQ(ranges.size(), 7u);
    for (std::size_t c = 0; c < ranges.size(); ++c) {
      EXPECT_EQ(ranges[c].first, c * 16);
      EXPECT_EQ(ranges[c].second, std::min<std::size_t>(100, c * 16 + 16));
    }
  }
}

TEST(ParallelFor, NestedRegionsRunInlineWithoutDeadlock) {
  // A body that itself calls parallel_for must not deadlock the shared pool;
  // the inner region detects it is on a pool worker and runs inline.
  std::atomic<int> count{0};
  util::parallel_for(8, 1, 4, [&](std::size_t, std::size_t, std::size_t) {
    util::parallel_for(16, 4, 4,
                       [&](std::size_t begin, std::size_t end, std::size_t) {
                         count.fetch_add(int(end - begin));
                       });
  });
  EXPECT_EQ(count.load(), 8 * 16);
}

TEST(ParallelFor, SharedPoolSurvivesRepeatedRegions) {
  for (int round = 0; round < 50; ++round) {
    std::atomic<int> count{0};
    util::parallel_for(100, 10, 4, [&](std::size_t begin, std::size_t end, std::size_t) {
      count.fetch_add(int(end - begin));
    });
    ASSERT_EQ(count.load(), 100) << "round " << round;
  }
}

TEST(ParallelFor, PropagatesExceptions) {
  EXPECT_THROW(
      util::parallel_for(64, 4, 4,
                         [&](std::size_t begin, std::size_t, std::size_t) {
                           if (begin == 32) throw std::runtime_error("boom");
                         }),
      std::runtime_error);
}

// Regression: the throwing chunk must land on a *pool worker* (the plain
// test above can be satisfied by the calling thread draining every chunk).
// An uncaught exception on a worker would std::terminate; the contract is
// capture-and-rethrow on the calling thread. The caller's chunks spin until
// a worker has taken the poisoned chunk, so the throw provably happens on a
// worker thread.
TEST(ParallelFor, PropagatesExceptionsFromWorkerThreads) {
  std::atomic<bool> worker_threw{false};
  try {
    util::parallel_for(64, 4, 4, [&](std::size_t, std::size_t, std::size_t) {
      if (util::ThreadPool::in_worker()) {
        // First worker-executed chunk throws, whichever chunk that is.
        if (!worker_threw.exchange(true)) throw std::runtime_error("boom on worker");
        return;
      }
      // Calling thread: wait until the worker-side throw happened (bounded,
      // so a regression fails the assertion instead of hanging the suite).
      for (int spin = 0; spin < 10'000 && !worker_threw.load(); ++spin) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
    });
    FAIL() << "parallel_for swallowed the worker exception";
  } catch (const std::runtime_error& e) {
    EXPECT_STREQ(e.what(), "boom on worker");
  }
  EXPECT_TRUE(worker_threw.load());
}

// util::first_accepted: an ordered speculative scan. The fixture scores with
// a little busy work so helpers genuinely overlap the caller's walk.
struct ScanProbe {
  explicit ScanProbe(std::size_t n) : scored(n), finished(n) {
    for (std::size_t i = 0; i < n; ++i) {
      scored[i].store(0);
      finished[i].store(false);
    }
  }

  void score(std::size_t i) {
    running.fetch_add(1);
    scored[i].fetch_add(1);
    busy(std::chrono::microseconds(50));
    finished[i].store(true);
    running.fetch_sub(1);
  }

  static void busy(std::chrono::microseconds d) {
    const auto until = std::chrono::steady_clock::now() + d;
    while (std::chrono::steady_clock::now() < until) {
    }
  }

  std::vector<std::atomic<int>> scored;
  std::vector<std::atomic<bool>> finished;
  std::atomic<int> running{0};
};

TEST(FirstAccepted, ReturnsFirstAcceptedIndexWithBoundedLookahead) {
  constexpr std::size_t kCount = 40;
  const std::thread::id caller = std::this_thread::get_id();
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (const std::size_t accept : {kCount, std::size_t{0}, kCount / 2, kCount - 1}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " accept=" + std::to_string(accept));
      ScanProbe probe(kCount);
      std::size_t next_decide = 0;
      bool decide_ok = true;
      const std::size_t result = util::first_accepted(
          kCount, threads, [&](std::size_t i) { probe.score(i); },
          [&](std::size_t i) {
            // On the caller, in index order, after score(i) has finished.
            decide_ok = decide_ok && std::this_thread::get_id() == caller &&
                        i == next_decide && probe.finished[i].load();
            ++next_decide;
            // A slow decide lets the helpers run into the lookahead bound.
            ScanProbe::busy(std::chrono::microseconds(100));
            return i >= accept;  // every later index would accept too
          });
      EXPECT_EQ(result, accept);
      EXPECT_TRUE(decide_ok);
      EXPECT_EQ(next_decide, std::min(accept + 1, kCount));
      EXPECT_EQ(probe.running.load(), 0);
      for (std::size_t i = 0; i < kCount; ++i) {
        const int n = probe.scored[i].load();
        EXPECT_LE(n, 1) << "score(" << i << ") ran twice";
        if (i <= result) EXPECT_EQ(n, 1) << "the walk decided " << i << " unscored";
        if (result < kCount && i > result + 2 * threads) {
          EXPECT_EQ(n, 0) << "score(" << i << ") ran past the lookahead";
        }
      }
    }
  }
}

TEST(FirstAccepted, SerialWidthIsTheLazyWalk) {
  std::vector<std::string> events;
  const std::size_t result = util::first_accepted(
      5, 1, [&](std::size_t i) { events.push_back("s" + std::to_string(i)); },
      [&](std::size_t i) {
        events.push_back("d" + std::to_string(i));
        return i == 2;
      });
  EXPECT_EQ(result, 2u);
  EXPECT_EQ(events, (std::vector<std::string>{"s0", "d0", "s1", "d1", "s2", "d2"}));
}

TEST(FirstAccepted, ScoreExceptionSurfacesAsTheSerialWalks) {
  constexpr std::size_t kCount = 32;
  for (const std::size_t threads : {1u, 2u, 4u, 8u}) {
    for (const std::size_t k : {std::size_t{0}, std::size_t{5}, kCount - 1}) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " k=" + std::to_string(k));
      ScanProbe probe(kCount);
      // Every index from k on throws: the serial walk meets k first, so k's
      // exception must surface whichever helper threw first.
      const auto score = [&](std::size_t i) {
        probe.score(i);
        if (i >= k) throw std::runtime_error("score " + std::to_string(i));
      };
      try {
        (void)util::first_accepted(kCount, threads, score, [](std::size_t) { return false; });
        FAIL() << "first_accepted swallowed the score exception";
      } catch (const std::runtime_error& e) {
        EXPECT_EQ(std::string(e.what()), "score " + std::to_string(k));
      }
      EXPECT_EQ(probe.running.load(), 0) << "a helper outlived the scan";

      // An acceptance before k means the walk never reaches the throw.
      if (k > 0) {
        ScanProbe quiet(kCount);
        const std::size_t result = util::first_accepted(
            kCount, threads,
            [&](std::size_t i) {
              quiet.score(i);
              if (i >= k) throw std::runtime_error("unreached");
            },
            [&](std::size_t i) { return i == k - 1; });
        EXPECT_EQ(result, k - 1);
        EXPECT_EQ(quiet.running.load(), 0);
      }
    }
  }
}

TEST(FirstAccepted, DecideExceptionSurfacesAfterHelpersJoin) {
  for (const std::size_t threads : {1u, 4u}) {
    ScanProbe probe(24);
    try {
      (void)util::first_accepted(
          24, threads, [&](std::size_t i) { probe.score(i); },
          [](std::size_t i) -> bool {
            if (i == 7) throw std::logic_error("decide 7");
            return false;
          });
      FAIL() << "first_accepted swallowed the decide exception";
    } catch (const std::logic_error& e) {
      EXPECT_STREQ(e.what(), "decide 7");
    }
    EXPECT_EQ(probe.running.load(), 0);
  }
}

// The caller counts as a pool worker while it scans: its helpers sleep
// until the walk advances, so a region nested in score or decide must run
// inline rather than queue behind them (threads 8 > a 4-worker pool would
// otherwise leave it waiting for a free worker).
TEST(FirstAccepted, NestedRegionsInsideTheScanRunInline) {
  std::atomic<int> outside_worker{0};
  std::atomic<int> covered{0};
  const auto nested = [&] {
    if (!util::ThreadPool::in_worker()) outside_worker.fetch_add(1);
    util::parallel_for(16, 4, 4, [&](std::size_t begin, std::size_t end, std::size_t) {
      covered.fetch_add(int(end - begin));
    });
  };
  const std::size_t result = util::first_accepted(
      32, 8, [&](std::size_t) { nested(); },
      [&](std::size_t i) {
        nested();
        return i == 20;
      });
  EXPECT_EQ(result, 20u);
  EXPECT_EQ(outside_worker.load(), 0);
  EXPECT_GE(covered.load(), 2 * 21 * 16);
  EXPECT_FALSE(util::ThreadPool::in_worker()) << "the caller's scope outlived the scan";
}

TEST(FirstAccepted, CallFromPoolWorkerRunsInline) {
  util::ThreadPool pool(1);
  std::vector<std::string> events;
  std::size_t result = 0;
  bool same_thread = true;
  pool.submit([&] {
    const std::thread::id worker = std::this_thread::get_id();
    result = util::first_accepted(
        6, 4,
        [&](std::size_t i) {
          same_thread = same_thread && std::this_thread::get_id() == worker;
          events.push_back("s" + std::to_string(i));
        },
        [&](std::size_t i) {
          events.push_back("d" + std::to_string(i));
          return i == 1;
        });
  });
  pool.wait_idle();
  EXPECT_EQ(result, 1u);
  EXPECT_TRUE(same_thread);
  EXPECT_EQ(events, (std::vector<std::string>{"s0", "d0", "s1", "d1"}));
}

TEST(ThreadPool, RunsSubmittedTasks) {
  util::ThreadPool pool(3);
  EXPECT_EQ(pool.thread_count(), 3u);
  std::atomic<int> counter{0};
  for (int i = 0; i < 50; ++i) pool.submit([&] { counter.fetch_add(1); });
  pool.wait_idle();
  EXPECT_EQ(counter.load(), 50);
}

}  // namespace
}  // namespace statsizer::ssta
