#include "netlist/sim.h"

#include <stdexcept>

#include "netlist/topo.h"
#include "util/rng.h"

namespace statsizer::netlist {

Simulator::Simulator(const Netlist& nl) : nl_(nl), order_(topological_order(nl)) {}

std::vector<std::uint64_t> Simulator::eval_all(std::span<const std::uint64_t> input_words) const {
  if (input_words.size() != nl_.inputs().size()) {
    throw std::invalid_argument("Simulator::eval: one word per primary input required");
  }
  std::vector<std::uint64_t> value(nl_.node_count(), 0);
  for (std::size_t i = 0; i < input_words.size(); ++i) value[nl_.inputs()[i]] = input_words[i];

  for (GateId id : order_) {
    const Gate& g = nl_.gate(id);
    const auto& in = g.fanins;
    std::uint64_t v = 0;
    switch (g.func) {
      case GateFunc::kInput:
        continue;  // already seeded
      case GateFunc::kConst0:
        v = 0;
        break;
      case GateFunc::kConst1:
        v = ~0ULL;
        break;
      case GateFunc::kBuf:
        v = value[in[0]];
        break;
      case GateFunc::kInv:
        v = ~value[in[0]];
        break;
      case GateFunc::kAnd:
      case GateFunc::kNand:
        v = ~0ULL;
        for (GateId f : in) v &= value[f];
        if (g.func == GateFunc::kNand) v = ~v;
        break;
      case GateFunc::kOr:
      case GateFunc::kNor:
        v = 0;
        for (GateId f : in) v |= value[f];
        if (g.func == GateFunc::kNor) v = ~v;
        break;
      case GateFunc::kXor:
      case GateFunc::kXnor:
        v = 0;
        for (GateId f : in) v ^= value[f];
        if (g.func == GateFunc::kXnor) v = ~v;
        break;
      case GateFunc::kAoi21:
        v = ~((value[in[0]] & value[in[1]]) | value[in[2]]);
        break;
      case GateFunc::kOai21:
        v = ~((value[in[0]] | value[in[1]]) & value[in[2]]);
        break;
      case GateFunc::kMux2:
        v = (value[in[0]] & ~value[in[2]]) | (value[in[1]] & value[in[2]]);
        break;
    }
    value[id] = v;
  }
  return value;
}

std::vector<std::uint64_t> Simulator::eval(std::span<const std::uint64_t> input_words) const {
  const std::vector<std::uint64_t> value = eval_all(input_words);
  std::vector<std::uint64_t> out;
  out.reserve(nl_.outputs().size());
  for (const Output& o : nl_.outputs()) out.push_back(value[o.driver]);
  return out;
}

std::vector<bool> eval_single(const Netlist& nl, const std::vector<bool>& inputs) {
  std::vector<std::uint64_t> words(inputs.size());
  for (std::size_t i = 0; i < inputs.size(); ++i) words[i] = inputs[i] ? 1 : 0;
  const auto outs = Simulator(nl).eval(words);
  std::vector<bool> result(outs.size());
  for (std::size_t i = 0; i < outs.size(); ++i) result[i] = (outs[i] & 1ULL) != 0;
  return result;
}

bool probably_equivalent(const Netlist& a, const Netlist& b, std::uint64_t seed,
                         unsigned rounds) {
  if (a.inputs().size() != b.inputs().size()) return false;
  if (a.outputs().size() != b.outputs().size()) return false;
  for (std::size_t i = 0; i < a.inputs().size(); ++i) {
    if (a.gate(a.inputs()[i]).name != b.gate(b.inputs()[i]).name) return false;
  }
  for (std::size_t i = 0; i < a.outputs().size(); ++i) {
    if (a.outputs()[i].name != b.outputs()[i].name) return false;
  }

  util::Rng rng(seed);
  const Simulator sim_a(a);
  const Simulator sim_b(b);
  std::vector<std::uint64_t> words(a.inputs().size());
  for (unsigned round = 0; round < rounds; ++round) {
    for (auto& w : words) {
      const std::uint64_t high = rng.index(1ULL << 32);  // drawn first
      w = (high << 32) ^ rng.index(1ULL << 32);
    }
    if (sim_a.eval(words) != sim_b.eval(words)) return false;
  }
  return true;
}

}  // namespace statsizer::netlist
