// Corpus: throw-in-parallel must fire on throw expressions inside worker
// lambdas handed to parallel_for / run_wavefront_level, and stay silent on
// throws outside parallel regions, per-slot status recording, and justified
// waivers.
#include <cstddef>
#include <stdexcept>
#include <vector>

namespace util {
template <typename Body>
void parallel_for(std::size_t total, std::size_t chunk, std::size_t threads, Body&& body);
template <typename Score, typename Decide>
std::size_t first_accepted(std::size_t count, std::size_t threads, Score&& score,
                           Decide&& decide);
}
namespace sta {
template <typename Body>
void run_wavefront_level(const std::vector<int>& level, std::size_t cutoff,
                         std::size_t chunk, std::size_t threads, Body&& body);
}

void throwing_worker(std::size_t n, const std::vector<double>& in) {
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      if (in[i] < 0.0) {
        throw std::runtime_error("negative");  // expect-lint: throw-in-parallel
      }
    }
  });
}

void throwing_wavefront(const std::vector<int>& level, const std::vector<double>& in) {
  sta::run_wavefront_level(level, 16, 64, 0, [&](std::size_t i) {
    if (in[i] < 0.0) {
      throw std::logic_error("negative");  // expect-lint: throw-in-parallel
    }
  });
}

// Throwing before the parallel region is the sanctioned pattern: validate
// serially, then dispatch workers that cannot fail.
void validate_then_dispatch(std::size_t n, const std::vector<double>& in,
                            std::vector<double>& out) {
  if (in.size() < n) {
    throw std::invalid_argument("short input");  // silent: outside any worker
  }
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      out[i] = in[i] * 2.0;  // silent: no throw in the body
    }
  });
}

// Per-slot status recording: workers note failure, the join decides.
void per_slot_status(std::size_t n, const std::vector<double>& in,
                     std::vector<unsigned char>& bad) {
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      bad[i] = in[i] < 0.0 ? 1 : 0;  // silent: deterministic post-join failure
    }
  });
  for (std::size_t i = 0; i < n; ++i) {
    if (bad[i]) throw std::runtime_error("negative input");  // silent: after join
  }
}

// Waived: a worker that throws on a provably impossible branch, justified.
void waived_throw(std::size_t n, std::vector<double>& out) {
  util::parallel_for(n, 16, 0, [&](std::size_t begin, std::size_t end, std::size_t) {
    for (std::size_t i = begin; i < end; ++i) {
      if (i >= out.size()) {
        // lint-ok: throw-in-parallel corpus example of a justified waiver
        throw std::logic_error("unreachable");
      }
      out[i] = 1.0;
    }
  });
}

// first_accepted: the score body runs on pool helpers, the decide body on the
// caller only.
std::size_t throwing_scan(std::size_t n, const std::vector<double>& in) {
  return util::first_accepted(
      n, 4,
      [&](std::size_t i) {
        if (in[i] < 0.0) throw std::runtime_error("negative");  // expect-lint: throw-in-parallel
      },
      [&](std::size_t i) {
        if (in[i] > 1e9) throw std::runtime_error("overflow");  // silent: caller-side decide
        return in[i] > 1.0;
      });
}
