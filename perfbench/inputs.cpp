#include "inputs.h"

#include <algorithm>
#include <numeric>
#include <cstdio>
#include <cstdlib>

namespace perfbench {

using statsizer::netlist::GateId;
using statsizer::netlist::Netlist;

SeededRng::SeededRng(std::uint64_t seed, std::uint64_t stream)
    : state_(seed * 0x9E3779B97F4A7C15ULL ^ (stream + 0x632BE59BD9B4E019ULL)) {}

std::uint64_t SeededRng::next() {
  std::uint64_t z = (state_ += 0x9E3779B97F4A7C15ULL);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

double SeededRng::uniform() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }

std::uint64_t SeededRng::below(std::uint64_t n) { return next() % n; }

std::string format_ps(double ps) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.3f", ps);
  return buf;
}

double parse_ps(const std::string& text) { return std::strtod(text.c_str(), nullptr); }

double arrival_offset(std::uint64_t seed, std::uint64_t stream, double max_ps) {
  SeededRng rng(seed, stream);
  return static_cast<double>(rng.below(static_cast<std::uint64_t>(max_ps * 10.0))) / 10.0;
}

std::string sdc_text(double arrival_ps, const std::optional<std::string>& clock_ps) {
  std::string out;
  if (clock_ps) out += "create_clock -period " + *clock_ps + " -name clk\n";
  out += std::string("set_input_delay ") + (clock_ps ? "-clock clk " : "") +
         format_ps(arrival_ps) + " [all_inputs]\n";
  return out;
}

namespace {

bool resizable(const Netlist& nl, GateId id) {
  return !nl.is_input(id) && !nl.is_constant(id) &&
         nl.gate(id).cell_group != statsizer::netlist::kUnmapped;
}

std::vector<std::size_t> permutation(std::size_t n, SeededRng& rng) {
  std::vector<std::size_t> order(n);
  std::iota(order.begin(), order.end(), std::size_t{0});
  for (std::size_t i = n - 1; i > 0; --i) {  // Fisher-Yates
    std::swap(order[i], order[rng.below(i + 1)]);
  }
  return order;
}

}  // namespace

std::vector<std::uint16_t> seeded_sizes(const Netlist& nl, std::uint64_t seed, double fraction) {
  SeededRng rng(seed, 0x51CE);
  std::vector<std::uint16_t> sizes = nl.sizes();
  for (GateId id = 0; id < nl.node_count(); ++id) {
    if (resizable(nl, id) && rng.uniform() < fraction && sizes[id] > 0) --sizes[id];
  }
  return sizes;
}

std::vector<std::string> logic_gate_names(const Netlist& nl) {
  std::vector<std::string> names;
  for (GateId id = 0; id < nl.node_count(); ++id) {
    if (resizable(nl, id)) names.push_back(nl.gate(id).name);
  }
  return names;
}

std::vector<Probe> probe_list(const std::vector<std::string>& gates, std::uint64_t seed,
                              std::uint64_t stream, std::size_t count) {
  SeededRng rng(seed, stream);
  const std::vector<std::size_t> order = permutation(gates.size(), rng);
  std::vector<Probe> out;
  out.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    Probe p;
    p.gate = gates[order[i % order.size()]];
    p.raw_size = static_cast<std::uint32_t>(rng.below(1U << 16));
    out.push_back(std::move(p));
  }
  return out;
}

std::vector<Request> request_script(const std::vector<std::string>& gates, std::uint64_t seed,
                                    std::size_t client, std::size_t clients, std::size_t blocks) {
  SeededRng order_rng(seed, 0x0DE7);
  const std::vector<std::size_t> order = permutation(gates.size(), order_rng);
  std::size_t next_whatif = client;
  SeededRng rng(seed, 0xC11E47 + client);
  std::vector<Request> script;
  script.reserve(blocks * kBlockSize);
  for (std::size_t b = 0; b < blocks; ++b) {
    std::vector<Request::Op> ops;
    ops.insert(ops.end(), kBlockWhatIf, Request::Op::kWhatIf);
    ops.insert(ops.end(), kBlockInfo, Request::Op::kInfo);
    ops.insert(ops.end(), kBlockSdc, Request::Op::kSdc);
    for (std::size_t i = ops.size() - 1; i > 0; --i) {  // Fisher-Yates
      std::swap(ops[i], ops[rng.below(i + 1)]);
    }
    for (const Request::Op op : ops) {
      Request r;
      r.op = op;
      if (op == Request::Op::kWhatIf) {
        r.probe.gate = gates[order[next_whatif % order.size()]];
        next_whatif += clients;
        r.probe.raw_size = static_cast<std::uint32_t>(rng.below(1U << 16));
      } else if (op == Request::Op::kSdc) {
        r.clock_sigmas = 1.0 + 3.0 * static_cast<double>(rng.below(1000)) / 1000.0;
      }
      script.push_back(std::move(r));
    }
  }
  return script;
}

std::string describe(const std::vector<Request>& script) {
  std::string out;
  char buf[64];
  for (const Request& r : script) {
    switch (r.op) {
      case Request::Op::kWhatIf:
        std::snprintf(buf, sizeof(buf), " %u\n", r.probe.raw_size);
        out += "whatif " + r.probe.gate + buf;
        break;
      case Request::Op::kInfo:
        out += "info\n";
        break;
      case Request::Op::kYield:
        out += "yield\n";
        break;
      case Request::Op::kSdc:
        std::snprintf(buf, sizeof(buf), "sdc %.3f\n", r.clock_sigmas);
        out += buf;
        break;
    }
  }
  return out;
}

}  // namespace perfbench
