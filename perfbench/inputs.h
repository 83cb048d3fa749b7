// Seeded input generation for the benchmark workloads. Everything the seed
// controls lives here: SDC input-arrival offsets, starting drive strengths,
// what-if probe lists, and the served request stream. The generators use
// their own splitmix64 stream (not the library's RNG) so the inputs for a
// seed stay byte-identical across library revisions.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "netlist/netlist.h"

namespace perfbench {

/// splitmix64: one 64-bit state, one stream per (seed, stream id).
class SeededRng {
 public:
  SeededRng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  /// Uniform in [0, 1).
  double uniform();
  /// Uniform in [0, n). Precondition: n > 0.
  std::uint64_t below(std::uint64_t n);

 private:
  std::uint64_t state_;
};

/// A clock or delay written into SDC text: fixed three decimals, so the
/// value the library parses back is exactly parse_ps(format_ps(x)).
std::string format_ps(double ps);
double parse_ps(const std::string& text);

/// A design's input-arrival offset in [0, max_ps), 0.1 ps resolution. One
/// offset per design, applied to every input: it moves every arrival, mean
/// and clock by the same amount but leaves the sizing problem unchanged, so
/// the sizers do the same work for every seed (per-input offsets of even a
/// few ps send the greedy sizers down different paths: +-30% flow time and
/// area across seeds).
double arrival_offset(std::uint64_t seed, std::uint64_t stream, double max_ps);

/// SDC text: set_input_delay @p arrival_ps on [all_inputs], plus
/// create_clock when @p clock_ps (already rounded by format_ps) is given.
std::string sdc_text(double arrival_ps, const std::optional<std::string>& clock_ps);

/// Starting drive strengths: the mapped sizes with a seeded @p fraction of
/// logic gates one size step smaller (gates already at the smallest size
/// stay), so the sizer starts from a slightly under-driven design.
std::vector<std::uint16_t> seeded_sizes(const statsizer::netlist::Netlist& nl, std::uint64_t seed,
                                        double fraction);

/// Names of the logic gates (mapped, resizable), in id order.
std::vector<std::string> logic_gate_names(const statsizer::netlist::Netlist& nl);

/// One single-resize what-if: gate name and a raw size draw. The size index
/// used is raw % size_count, bumped by one when it equals the current size.
struct Probe {
  std::string gate;
  std::uint32_t raw_size = 0;
};
/// @p count probes whose gates walk one seeded permutation of @p gates
/// (cyclically), so every seed probes nearly the same set of cones; sizes
/// are drawn per probe. Independent gate draws moved whatif_p99_ms between
/// seeds.
std::vector<Probe> probe_list(const std::vector<std::string>& gates, std::uint64_t seed,
                              std::uint64_t stream, std::size_t count);

/// One request of the served stream.
struct Request {
  enum class Op { kWhatIf, kInfo, kYield, kSdc };
  Op op = Op::kWhatIf;
  Probe probe;                  // kWhatIf
  double clock_sigmas = 0.0;    // kSdc: clock = mean + clock_sigmas * sigma
};
/// Requests per block of a what-if client's script. Each block holds
/// exactly kBlockWhatIf what-ifs, kBlockInfo infos and kBlockSdc SDC
/// updates, in a seeded order (89 / 9.5 / 1.5 %). Yields come from separate
/// yield clients: one served yield costs as much as ~500 what-ifs.
inline constexpr std::size_t kBlockSize = 200;
inline constexpr std::size_t kBlockWhatIf = 178;
inline constexpr std::size_t kBlockInfo = 19;
inline constexpr std::size_t kBlockSdc = 3;
/// Client @p client's script (of @p clients): @p blocks blocks of
/// kBlockSize requests. What-if gates walk one seeded permutation of
/// @p gates, interleaved across the clients, so every run samples the
/// design's cone sizes nearly the same way (independent draws moved
/// whatif_p99_ms by +-25% between seeds).
std::vector<Request> request_script(const std::vector<std::string>& gates, std::uint64_t seed,
                                    std::size_t client, std::size_t clients, std::size_t blocks);
/// One line per request, for the byte-identity check of generated inputs.
std::string describe(const std::vector<Request>& script);

}  // namespace perfbench
