// Corpus: shared-mutable-capture must fire on parallel worker lambdas that
// grow or accumulate into by-reference captured state, and stay silent on
// per-slot writes, per-chunk locals, and by-value captures.
#include <cstddef>
#include <vector>

namespace util {
template <typename Body>
void parallel_for(std::size_t total, std::size_t chunk, std::size_t threads, Body&& body);
template <typename Score, typename Decide>
std::size_t first_accepted(std::size_t count, std::size_t threads, Score&& score,
                           Decide&& decide);
}
namespace sta {
struct LevelSchedule {};
template <typename Body>
void run_levels(LevelSchedule schedule, const char* site, std::size_t threads,
                std::size_t cutoff, std::size_t chunk, Body&& body);
}

void racy_push_back(std::size_t n) {
  std::vector<double> results;
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      results.push_back(static_cast<double>(i));  // expect-lint: shared-mutable-capture
    }
  });
}

void racy_accumulate(std::size_t n) {
  double total = 0.0;
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      total += static_cast<double>(i);  // expect-lint: shared-mutable-capture
    }
  });
}

void racy_counter(std::size_t n) {
  std::size_t hits = 0;
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      ++hits;  // expect-lint: shared-mutable-capture
    }
  });
}

// Per-slot writes are the sanctioned pattern: each index owns its element.
void per_slot_write(std::size_t n) {
  std::vector<double> results(n, 0.0);
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      results[i] = static_cast<double>(i);  // silent: subscripted per-slot write
    }
  });
}

// Per-chunk locals merged after the join are fine too (the local is declared
// inside the body, so it is per-invocation by construction).
void per_chunk_local(std::size_t n, std::vector<double>& partial) {
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t chunk) {
    double local = 0.0;
    for (std::size_t i = begin; i < end; ++i) {
      local += static_cast<double>(i);  // silent: body-local accumulator
    }
    partial[chunk] = local;  // silent: per-slot write keyed by chunk index
  });
}

// Waived: a deliberately shared atomic-like pattern, justified inline.
void waived_shared(std::size_t n, std::vector<double>& bins) {
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      // lint-ok: shared-mutable-capture corpus example of a justified waiver
      bins.resize(end);
    }
  });
}

// The level schedule's bodies are worker bodies too.
void racy_level_body(sta::LevelSchedule schedule) {
  std::vector<int> visited;
  sta::run_levels(schedule, "corpus/level", 4, 16, 1, [&](int id) {
    visited.push_back(id);  // expect-lint: shared-mutable-capture
  });
}

// first_accepted's score body runs on pool helpers: shared growth fires.
// Its decide body runs on the caller only, in order, so counting there is
// the sanctioned pattern and stays silent.
std::size_t racy_scan_score(std::size_t n) {
  std::vector<std::size_t> scored;
  std::size_t decided = 0;
  return util::first_accepted(
      n, 4,
      [&](std::size_t i) {
        scored.push_back(i);  // expect-lint: shared-mutable-capture
      },
      [&](std::size_t i) {
        ++decided;  // silent: decide runs on the caller
        return i == n / 2;
      });
}

void per_slot_scan(std::size_t n) {
  std::vector<double> costs(n, 0.0);
  std::size_t decided = 0;
  (void)util::first_accepted(
      n, 4, [&](std::size_t i) { costs[i] = static_cast<double>(i); },  // silent: per-slot
      [&](std::size_t i) {
        decided += 1;  // silent: decide runs on the caller
        return costs[i] > 3.0;
      });
}
