// P2 — discrete-pdf operation microbenchmarks (google-benchmark): the cost
// of FULLSSTA's primitive sum/max at the paper's sampling rates (rung 1 of
// the measurement ladder), and of one gate's arrival-pdf fold built from
// them (rung 2). Snapshot: scripts/bench_snapshot.sh BENCH_pdf_kernel.json.
#include <benchmark/benchmark.h>

#include <vector>

#include "bench_main.h"
#include "netlist/netlist.h"
#include "pdf/discrete_pdf.h"
#include "ssta/fullssta.h"

namespace {

using statsizer::pdf::DiscretePdf;

void BM_NormalDiscretize(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  for (auto _ : state) {
    benchmark::DoNotOptimize(DiscretePdf::normal(100.0, 10.0, samples));
  }
}
BENCHMARK(BM_NormalDiscretize)->Arg(10)->Arg(13)->Arg(15)->Arg(25);

void BM_Sum(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const DiscretePdf a = DiscretePdf::normal(100.0, 10.0, samples);
  const DiscretePdf b = DiscretePdf::normal(40.0, 6.0, samples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sum(a, b, samples));
  }
}
BENCHMARK(BM_Sum)->Arg(10)->Arg(13)->Arg(15)->Arg(25);

void BM_Max(benchmark::State& state) {
  const auto samples = static_cast<std::size_t>(state.range(0));
  const DiscretePdf a = DiscretePdf::normal(100.0, 10.0, samples);
  const DiscretePdf b = DiscretePdf::normal(98.0, 12.0, samples);
  for (auto _ : state) {
    benchmark::DoNotOptimize(max(a, b, samples));
  }
}
BENCHMARK(BM_Max)->Arg(10)->Arg(13)->Arg(15)->Arg(25);

void BM_Resample(benchmark::State& state) {
  const DiscretePdf a = DiscretePdf::normal(100.0, 10.0, 41);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.resampled(13));
  }
}
BENCHMARK(BM_Resample);

void BM_Quantile(benchmark::State& state) {
  const DiscretePdf a = DiscretePdf::normal(100.0, 10.0, 13);
  for (auto _ : state) {
    benchmark::DoNotOptimize(a.quantile(0.99));
  }
}
BENCHMARK(BM_Quantile);

// Per-gate propagation: ssta::gate_arrival_pdf, the FULLSSTA kernel, over
// 1/2/4 fanins at the default 13 samples — per arc one delay normal and one
// sum, then a max per extra arc. Fanin arrivals are distinct normals, as
// they would be a few levels deep.
void BM_GateFold(benchmark::State& state) {
  const auto fanins = static_cast<std::size_t>(state.range(0));
  const statsizer::ssta::FullSstaOptions options;  // 13 samples, +-4 sigma
  std::vector<DiscretePdf> arrival;
  std::vector<double> delay;
  std::vector<double> sigma;
  for (std::size_t i = 0; i < fanins; ++i) {
    const double k = static_cast<double>(i);
    arrival.push_back(
        DiscretePdf::normal(200.0 + 6.0 * k, 12.0 + k, options.samples_per_pdf));
    delay.push_back(30.0 + 2.0 * k);
    sigma.push_back(3.0 + 0.5 * k);
  }
  const auto through = [&](std::size_t i) {
    return statsizer::ssta::through_pdf(arrival[i], delay[i], sigma[i], options);
  };
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        statsizer::ssta::gate_arrival_pdf(fanins, through, options.samples_per_pdf));
  }
}
BENCHMARK(BM_GateFold)->Arg(1)->Arg(2)->Arg(4);

}  // namespace

int main(int argc, char** argv) { return statsizer::bench::run_main(argc, argv); }
