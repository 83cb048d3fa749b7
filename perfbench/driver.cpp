// perfbench_driver — runs one benchmark workload against the statsizer
// library (public API only) and the statsizer_serve process, then writes the
// raw measurements (per-op latency samples, pass and set-up times, layer
// counters, output-check outcomes, provenance) as one JSON document.
// perfbench/run.py builds this program, runs it under a hard time limit and
// turns the raw file into the reported metrics; see perfbench/README.md.
//
//   perfbench_driver --workload table1_flow --seed 1 --seconds 25 --trace 0
//                    --width 4 --nproc 4 --work DIR --out FILE --serve-bin PATH
//   perfbench_driver --workload W --seed S --inputs-only --work DIR ...
//
// With --trace 1 every call the driver makes into a library layer runs
// inside a span (name "<layer>.<call>"); spans are kept in memory and
// written as Chrome trace-event JSON to DIR/trace.json at exit.
#include <signal.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>
#include <arpa/inet.h>
#include <netinet/in.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <functional>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "bench_format/verilog_reader.h"
#include "bench_format/verilog_writer.h"
#include "core/flow.h"
#include "inputs.h"
#include "pdf/discrete_pdf.h"
#include "serve/job.h"
#include "serve/session.h"
#include "timing/analyzer.h"
#include "util/check.h"
#include "util/json.h"

extern char** environ;

namespace {

using namespace statsizer;
using perfbench::Probe;
using perfbench::Request;
using Clock = std::chrono::steady_clock;
using util::Json;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------------------
// Measurement state: samples, counters, checks, and the span buffer.
// ---------------------------------------------------------------------------

struct SpanEvent {
  std::string name;
  double start_us = 0.0;
  double dur_us = 0.0;
  std::uint32_t tid = 0;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;
};

class Recorder {
 public:
  Recorder() : origin_(Clock::now()) {}

  /// Spans are recorded only while tracing is on (the --trace 1 run turns it
  /// on after its untraced reference pass).
  void set_tracing(bool on) { tracing_ = on; }
  [[nodiscard]] bool tracing() const { return tracing_; }

  std::uint64_t next_span_id() { return ++span_ids_; }
  std::uint32_t thread_index() { return ++thread_ids_; }

  void add_span(SpanEvent e) {
    const std::lock_guard<std::mutex> lock(mutex_);
    spans_.push_back(std::move(e));
  }
  [[nodiscard]] double since_origin_us(Clock::time_point t) const {
    return std::chrono::duration<double, std::micro>(t - origin_).count();
  }

  void sample(const std::string& op, double ms) {
    const std::lock_guard<std::mutex> lock(mutex_);
    ops_[op].push_back(ms);
  }
  void pass_time(const std::string& part, bool traced, double s) {
    const std::lock_guard<std::mutex> lock(mutex_);
    (traced ? traced_pass_s : pass_s)[part].push_back(s);
  }
  void counter(const std::string& name, double value) {
    const std::lock_guard<std::mutex> lock(mutex_);
    counters_[name].push_back(value);
  }
  void check(const std::string& name, bool ok, const std::string& detail = {}) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = checks_.try_emplace(name, std::make_pair(true, std::string()));
    if (!ok && it->second.first) it->second = {false, detail};
  }
  void quality(const std::string& label, double sigma_change, double area_change) {
    const std::lock_guard<std::mutex> lock(mutex_);
    Json q;
    q["label"] = label;
    q["sigma_change"] = sigma_change;
    q["area_change"] = area_change;
    quality_.push_back(std::move(q));
  }
  /// Final-size digests: every pass of a run must produce the same one.
  void digest(const std::string& label, const std::string& hex) {
    const std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = digests_.try_emplace(label, hex);
    if (!inserted && it->second != hex) {
      checks_["sizes_repeat_within_run"] = {false, label + ": " + it->second + " vs " + hex};
    }
  }

  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> succeeded{0};
  std::atomic<std::uint64_t> failed{0};

  std::vector<double> setup_s;
  /// Pass time per part (a design of a flow pass, a served client block).
  std::map<std::string, std::vector<double>> pass_s;
  std::map<std::string, std::vector<double>> traced_pass_s;
  double window_s = 0.0;
  std::uint64_t window_ops = 0;
  double peak_rss_mb = 0.0;

  Json to_json(const Json& provenance) const;
  void write_trace(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::atomic<bool> tracing_{false};
  std::atomic<std::uint64_t> span_ids_{0};
  std::atomic<std::uint32_t> thread_ids_{0};
  mutable std::mutex mutex_;
  std::vector<SpanEvent> spans_;
  std::map<std::string, std::vector<double>> ops_;
  std::map<std::string, std::vector<double>> counters_;
  std::map<std::string, std::pair<bool, std::string>> checks_;
  std::vector<Json> quality_;
  std::map<std::string, std::string> digests_;
};

Recorder g;

Json numbers(const std::vector<double>& v) {
  Json::Array a;
  a.reserve(v.size());
  for (const double x : v) a.emplace_back(x);
  return a;
}

Json by_name(const std::map<std::string, std::vector<double>>& m) {
  Json out = Json::Object{};
  for (const auto& [name, v] : m) out[name] = numbers(v);
  return out;
}

Json Recorder::to_json(const Json& provenance) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  Json out;
  out["provenance"] = provenance;
  out["setup_s"] = numbers(setup_s);
  out["pass_s"] = by_name(pass_s);
  out["traced_pass_s"] = by_name(traced_pass_s);
  out["window_s"] = window_s;
  out["window_ops"] = window_ops;
  out["attempted"] = attempted.load();
  out["succeeded"] = succeeded.load();
  out["failed"] = failed.load();
  out["peak_rss_mb"] = peak_rss_mb;
  out["ops"] = by_name(ops_);
  out["counters"] = by_name(counters_);
  Json checks = Json::Array{};
  for (const auto& [name, result] : checks_) {
    Json c;
    c["name"] = name;
    c["ok"] = result.first;
    c["detail"] = result.second;
    checks.push_back(std::move(c));
  }
  out["checks"] = checks;
  out["quality"] = Json::Array(quality_);
  Json digests = Json::Object{};
  for (const auto& [label, hex] : digests_) digests[label] = hex;
  out["digests"] = digests;
  return out;
}

void Recorder::write_trace(const std::string& path) const {
  const std::lock_guard<std::mutex> lock(mutex_);
  std::ofstream f(path);
  f << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  char buf[160];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const SpanEvent& e = spans_[i];
    const std::string_view layer = std::string_view(e.name).substr(0, e.name.find('.'));
    std::snprintf(buf, sizeof(buf), "\",\"ph\":\"X\",\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                  e.start_us, e.dur_us, e.tid);
    f << (i ? "," : "") << "{\"name\":\"" << e.name << "\",\"cat\":\"" << layer << buf
      << ",\"args\":{\"id\":" << e.id << ",\"parent\":" << e.parent << "}}";
  }
  f << "]}\n";
}

thread_local std::vector<std::uint64_t> t_span_stack;
thread_local std::uint32_t t_tid = 0;

/// Times one region; records it as a trace span when tracing is on. The
/// enclosing span on the same thread is its parent.
class Span {
 public:
  explicit Span(const char* name) : name_(name), start_(Clock::now()) {
    if (g.tracing()) {
      if (t_tid == 0) t_tid = g.thread_index();
      id_ = g.next_span_id();
      parent_ = t_span_stack.empty() ? 0 : t_span_stack.back();
      t_span_stack.push_back(id_);
    }
  }
  ~Span() { stop(); }
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// Ends the span (idempotent) and returns its duration in ms.
  double stop() {
    if (done_) return ms_;
    done_ = true;
    const Clock::time_point end = Clock::now();
    ms_ = ms_between(start_, end);
    if (id_ != 0) {
      t_span_stack.pop_back();
      g.add_span(SpanEvent{name_, g.since_origin_us(start_), ms_ * 1000.0, t_tid, id_, parent_});
    }
    return ms_;
  }

 private:
  const char* name_;
  Clock::time_point start_;
  std::uint64_t id_ = 0;
  std::uint64_t parent_ = 0;
  bool done_ = false;
  double ms_ = 0.0;
};

/// One operation of the system under test: counted as attempted, then as
/// succeeded or failed, inside a span named after its layer and call.
/// @p ms (optional) receives its duration.
template <class F>
auto op(const char* name, F&& body, double* ms = nullptr) {
  ++g.attempted;
  Span span(name);
  try {
    if constexpr (std::is_void_v<decltype(body())>) {
      body();
      ++g.succeeded;
      if (ms != nullptr) *ms = span.stop();
    } else {
      auto result = body();
      ++g.succeeded;
      if (ms != nullptr) *ms = span.stop();
      return result;
    }
  } catch (...) {
    ++g.failed;
    throw;
  }
}

void need(const Status& s, const char* what) {
  if (!s.ok()) throw std::runtime_error(std::string(what) + ": " + std::string(s.message()));
}

std::string size_digest(const netlist::Netlist& nl) {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over the sizes in gate-id order
  const std::vector<std::uint16_t> sizes = nl.sizes();
  for (const std::uint16_t s : sizes) {
    h = (h ^ s) * 0x100000001b3ULL;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%016llx", static_cast<unsigned long long>(h));
  return buf;
}

/// Gates a resize of @p id can retime: its transitive fanout plus its
/// fanin drivers (whose load changes), counted from the netlist.
std::size_t cone_gates(const netlist::Netlist& nl, netlist::GateId id) {
  std::vector<char> seen(nl.node_count(), 0);
  std::vector<netlist::GateId> stack{id};
  seen[id] = 1;
  std::size_t count = 0;
  while (!stack.empty()) {
    const netlist::GateId g_id = stack.back();
    stack.pop_back();
    ++count;
    for (const netlist::GateId f : nl.gate(g_id).fanouts) {
      if (!seen[f]) {
        seen[f] = 1;
        stack.push_back(f);
      }
    }
  }
  return count + nl.gate(id).fanins.size();
}

double peak_rss_self_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---------------------------------------------------------------------------
// Options shared by the workloads.
// ---------------------------------------------------------------------------

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t width = 1;
  std::size_t nproc = 1;
  std::string work;
  std::string out;
  std::string serve_bin;
  bool inputs_only = false;
};

core::FlowOptions flow_options(std::size_t width) {
  core::FlowOptions o;
  o.sizer_threads = width;
  o.timing.threads = width;
  o.fullssta.threads = width;
  o.isle.threads = width;
  // The bench_table1 yield estimator: 0.2% standard error or 4096 draws.
  o.isle.target_yield_se = 2e-3;
  return o;
}

/// The bounded ECO effort bench_table1 uses on the 10k-gate fabrics.
opt::StatisticalSizerOptions eco_overrides(std::size_t width) {
  opt::StatisticalSizerOptions o;
  o.threads = width;
  o.max_iterations = 10;
  o.max_global_sweeps = 1;
  o.exact_fallback_gate_limit = 10;
  return o;
}

void write_file(const std::string& path, const std::string& text) {
  std::ofstream f(path, std::ios::binary);
  f << text;
  if (!f) throw std::runtime_error("cannot write " + path);
}

void write_probes(const std::string& path, const std::vector<Probe>& probes) {
  std::string text;
  for (const Probe& p : probes) text += p.gate + " " + std::to_string(p.raw_size) + "\n";
  write_file(path, text);
}

std::uint16_t probe_size(const core::Flow& flow, netlist::GateId id, std::uint32_t raw) {
  const netlist::Gate& gate = flow.netlist().gate(id);
  const auto count = static_cast<std::uint32_t>(flow.library().group(gate.cell_group).size_count());
  auto size = static_cast<std::uint16_t>(raw % count);
  if (size == gate.size_index) size = static_cast<std::uint16_t>((size + 1) % count);
  return size;
}

// ---------------------------------------------------------------------------
// Shared flow steps.
// ---------------------------------------------------------------------------

/// Applies SDC text and refreshes timing: the flow-side "sdc" operation.
/// @p sample = false for the reference replays of served requests, which
/// must not mix into the served latency samples.
void apply_sdc(core::Flow& flow, const std::string& text, bool sample = true) {
  const Clock::time_point t0 = Clock::now();
  op("core.sdc", [&] { need(flow.apply_sdc(text), "apply_sdc"); });
  op("sta.update", [&] { flow.timing().update(); });
  if (sample) g.sample("sdc", ms_between(t0, Clock::now()));
}

/// Yield at each clock, each installed through SDC (clock in ps) and read
/// back from the SDC by the estimator; checks the resolved clock.
void yield_at(core::Flow& flow, double arrival_ps,
              const std::vector<double>& clocks_ps) {
  for (const double clock : clocks_ps) {
    const std::string text = perfbench::format_ps(clock);
    apply_sdc(flow, perfbench::sdc_text(arrival_ps, text));
    double ms = 0.0;
    const core::YieldReport y = op("ssta.isle", [&] { return flow.estimate_yield(0.0); }, &ms);
    g.sample("yield", ms);
    g.check("yield_clock_is_sdc_ps", y.result.clock_period_ps == perfbench::parse_ps(text),
            "wrote " + text + " ps, estimator used " + std::to_string(y.result.clock_period_ps));
    g.check("yield_in_range", std::isfinite(y.yield()) && y.yield() >= 0.0 && y.yield() <= 1.0,
            std::to_string(y.yield()));
    g.counter("ssta.isle_draws", static_cast<double>(y.draws()));
    g.counter("ssta.isle_ess_ratio", y.draws() ? y.result.ess / static_cast<double>(y.draws()) : 0.0);
  }
}

/// Cone size (cone_gates) of every probe, computed in set-up for traced
/// runs so the timed passes do no harness-side graph walks.
std::vector<double> probe_cones(const Options& o, const netlist::Netlist& nl,
                                const std::vector<Probe>& probes) {
  std::vector<double> cones;
  if (!o.trace) return cones;
  for (const Probe& p : probes) cones.push_back(static_cast<double>(cone_gates(nl, nl.find(p.gate))));
  return cones;
}

/// Single-resize what-ifs on the confirm engine, scored and rolled back.
/// @p cones: the probes' cone sizes (probe_cones), recorded when tracing.
void whatif_probes(core::Flow& flow, std::span<const Probe> probes, std::span<const double> cones) {
  auto analyzer = op("timing.analyze", [&] {
    auto a = flow.make_analyzer("fullssta");
    (void)a->analyze(flow.timing());
    return a;
  });
  for (std::size_t k = 0; k < probes.size(); ++k) {
    const Probe& p = probes[k];
    const netlist::GateId id = flow.netlist().find(p.gate);
    if (id == netlist::kNoGate) throw std::runtime_error("probe: unknown gate " + p.gate);
    const std::uint16_t size = probe_size(flow, id, p.raw_size);
    double ms = 0.0;
    op(
        "timing.whatif",
        [&] {
          auto spec = analyzer->propose(id, size);
          (void)spec->score();
          spec->rollback();
        },
        &ms);
    g.sample("whatif", ms);
    if (g.tracing() && k < cones.size()) g.counter("timing.whatif_cone_gates", cones[k]);
  }
}

void fassta_run(core::Flow& flow) {
  op("fassta.run", [&] {
    auto a = flow.make_analyzer("fassta");
    (void)a->analyze(flow.timing());
  });
}

core::OptimizationRecord optimize(core::Flow& flow, double lambda,
                                  const opt::StatisticalSizerOptions& overrides,
                                  const std::string& label) {
  const core::OptimizationRecord rec =
      op("opt.optimize", [&] { return flow.optimize(lambda, &overrides); });
  const bool finite = std::isfinite(rec.sigma_change) && std::isfinite(rec.area_change);
  g.check("sigma_area_finite", finite, label);
  g.check("sigma_goes_down", finite && rec.sigma_change < 0.0,
          label + ": sigma change " + std::to_string(rec.sigma_change));
  g.quality(label, rec.sigma_change, rec.area_change);
  g.counter("opt.iterations", static_cast<double>(rec.iterations));
  g.counter("opt.resizes", static_cast<double>(rec.resizes));
  if (rec.iterations > 0) {
    g.counter("opt.ms_per_iteration", rec.runtime_seconds * 1000.0 / static_cast<double>(rec.iterations));
  }
  return rec;
}

/// Writes the design as Verilog, reads it back, and checks the sizes.
void write_and_verify(const core::Flow& flow, const std::string& path) {
  op("bench_format.write", [&] { need(flow.write_verilog_file(path), "write_verilog"); });
  const netlist::Netlist back = op("bench_format.read", [&] {
    auto nl = bench_format::read_verilog_file(path, flow.library());
    need(nl.status(), "read_verilog");
    return std::move(nl.value());
  });
  bool same = back.logic_gate_count() == flow.netlist().logic_gate_count();
  std::string detail;
  for (netlist::GateId id = 0; same && id < back.node_count(); ++id) {
    const netlist::GateId mine = flow.netlist().find(back.gate(id).name);
    same = mine != netlist::kNoGate &&
           flow.netlist().gate(mine).size_index == back.gate(id).size_index;
    if (!same) detail = back.gate(id).name;
  }
  g.check("verilog_reads_back_same_sizes", same, path + ": " + detail);
}

/// Runs rounds until the time budget is spent. A round runs every part
/// once inside one "bench.pass" span and records each part's time under its
/// label; flow_s is the sum of the parts' medians, so a burst of host noise
/// in one part is outvoted by that part's other rounds. Round 0 warms
/// caches and lazy state and is not recorded. In a traced run the next round
/// is the untraced overhead reference and the rest are traced.
void run_passes(const Options& o, const std::vector<std::string>& parts,
                const std::function<void(std::size_t)>& run_part) {
  const auto round = [&](bool record, bool traced) {
    g.set_tracing(traced);
    const std::uint64_t ops_before = g.attempted.load();
    Span span("bench.pass");
    for (std::size_t i = 0; i < parts.size(); ++i) {
      const Clock::time_point t0 = Clock::now();
      run_part(i);
      const double s = ms_between(t0, Clock::now()) / 1000.0;
      if (record) g.pass_time(parts[i], traced, s);
    }
    const double s = span.stop() / 1000.0;
    if (record && !traced) {
      g.window_s += s;
      g.window_ops += g.attempted.load() - ops_before;
    }
    return s;
  };
  (void)round(false, false);
  const Clock::time_point start = Clock::now();
  std::vector<double> done;
  for (int i = 0;; ++i) {
    const bool traced = o.trace && i > 0;
    done.push_back(round(true, traced));
    std::sort(done.begin(), done.end());
    const double typical = done[done.size() / 2];
    const double elapsed = ms_between(start, Clock::now()) / 1000.0;
    const bool need_traced = o.trace && !traced;
    if (!need_traced && elapsed + typical > o.seconds * 1.1) break;
  }
  g.set_tracing(o.trace);
}

/// Set-up repeated @p reps times; the median is reported.
void timed_setups(int reps, const std::function<void()>& setup) {
  for (int i = 0; i < reps; ++i) {
    Span span("bench.setup");
    const Clock::time_point t0 = Clock::now();
    setup();
    g.setup_s.push_back(ms_between(t0, Clock::now()) / 1000.0);
  }
}

void pdf_microbench() {
  constexpr std::size_t kSamples = 13;
  constexpr int kOps = 4000;
  const pdf::DiscretePdf a = pdf::DiscretePdf::normal(100.0, 5.0, kSamples);
  const pdf::DiscretePdf b = pdf::DiscretePdf::normal(104.0, 8.0, kSamples);
  volatile double sink = 0.0;
  const auto bench = [&](const char* name, const char* counter, auto&& body) {
    for (int rep = 0; rep < 7; ++rep) {
      Span span(name);
      double acc = 0.0;
      for (int i = 0; i < kOps; ++i) acc += body(i);
      sink = sink + acc;
      g.counter(counter, span.stop() * 1e6 / kOps);
    }
  };
  bench("pdf.normal", "pdf.normal_ns",
        [&](int i) { return pdf::DiscretePdf::normal(100.0 + i * 1e-3, 5.0, kSamples).mean(); });
  bench("pdf.sum", "pdf.sum_ns", [&](int) { return pdf::sum(a, b, kSamples).mean(); });
  bench("pdf.max", "pdf.max_ns", [&](int) { return pdf::max(a, b, kSamples).mean(); });
}

// ---------------------------------------------------------------------------
// table1_flow: the paper's Table-1 path on four small circuits.
// ---------------------------------------------------------------------------

const std::vector<std::string> kTable1 = {"alu1", "c432", "c880", "c3540"};
constexpr std::size_t kTable1ProbesPerLambda = 400;

struct Table1Design {
  std::string name;
  double arrival_ps = 0.0;
  std::string sdc_path;
  std::vector<Probe> probes;
  std::vector<double> cones;  // traced runs only
};

void run_table1(const Options& o) {
  std::vector<Table1Design> designs;
  // Set-up takes ~8 ms here, so more repetitions keep its median steady.
  timed_setups(15, [&] {
    designs.clear();
    for (std::size_t i = 0; i < kTable1.size(); ++i) {
      core::Flow flow(flow_options(o.width));
      op("core.load", [&] { need(flow.load_table1(kTable1[i]), "load_table1"); });
      Table1Design d;
      d.name = kTable1[i];
      // Fixed, not seeded: the greedy sizers are not shift-invariant in
      // floating point, so any seeded arrival (even one offset per design)
      // moved area by +-30% and flow time by +-20% across seeds. The seed
      // drives this workload's what-if probe stream.
      d.arrival_ps = 10.0;
      d.sdc_path = o.work + "/" + d.name + ".sdc";
      write_file(d.sdc_path, perfbench::sdc_text(d.arrival_ps, std::nullopt));
      op("core.sdc", [&] { need(flow.apply_sdc_file(d.sdc_path), "apply_sdc_file"); });
      d.probes = perfbench::probe_list(perfbench::logic_gate_names(flow.netlist()), o.seed,
                                       100 + i, 2 * kTable1ProbesPerLambda);
      d.cones = probe_cones(o, flow.netlist(), d.probes);
      designs.push_back(std::move(d));
    }
  });
  if (o.inputs_only) {
    for (const Table1Design& d : designs) write_probes(o.work + "/" + d.name + ".probes", d.probes);
    return;
  }

  std::vector<std::string> parts;
  for (const Table1Design& d : designs) parts.push_back(d.name);
  run_passes(o, parts, [&](std::size_t i) {
    const Table1Design& d = designs[i];
    core::Flow flow(flow_options(o.width));
    op("core.load", [&] { need(flow.load_table1(d.name), "load_table1"); });
    op("core.sdc", [&] { need(flow.apply_sdc_file(d.sdc_path), "apply_sdc_file"); });
    op("sta.update", [&] { flow.timing().update(); });
    op("drc.preflight", [&] {
      if (flow.preflight().has_errors()) throw std::runtime_error(d.name + ": preflight errors");
    });
    const opt::DeterministicSizerStats base = op("opt.baseline", [&] { return flow.run_baseline(); });
    g.counter("opt.baseline_resizes", static_cast<double>(base.resizes));
    const opt::CircuitStats original = op("ssta.fullssta", [&] { return flow.analyze(); });
    const std::vector<std::uint16_t> baseline_sizes = flow.netlist().sizes();
    // Yield clocks: the baseline's 2- and 3-sigma corners (Table 1 uses 3).
    const std::vector<double> clocks = {original.mean_ps + 2.0 * original.sigma_ps,
                                        original.mean_ps + 3.0 * original.sigma_ps};
    yield_at(flow, d.arrival_ps, clocks);
    opt::StatisticalSizerOptions overrides;
    overrides.threads = o.width;
    const std::span<const Probe> probes(d.probes);
    const std::span<const double> cones(d.cones);
    for (const double lambda : {3.0, 9.0}) {
      flow.timing().mutable_netlist().set_sizes(baseline_sizes);
      op("sta.update", [&] { flow.timing().update(); });
      const std::string label = d.name + "/lambda" + std::to_string(static_cast<int>(lambda));
      (void)optimize(flow, lambda, overrides, label);
      g.digest(label, size_digest(flow.netlist()));
      fassta_run(flow);
      yield_at(flow, d.arrival_ps, clocks);
      const std::size_t first = lambda == 3.0 ? 0 : kTable1ProbesPerLambda;
      whatif_probes(flow, probes.subspan(first, kTable1ProbesPerLambda),
                    cones.empty() ? cones : cones.subspan(first, kTable1ProbesPerLambda));
    }
  });
  g.peak_rss_mb = peak_rss_self_mb();
}

// ---------------------------------------------------------------------------
// signoff_mesh8: Verilog + SDC sign-off of a 12.8k-gate fabric.
// ---------------------------------------------------------------------------

constexpr std::size_t kMeshProbes = 1024;
// Yield sweep: the SDC clock (mean + 3 sigma) plus these multiples of the
// analyzed sigma. Clocks inside mean + 2 sigma cost the full 4096-draw
// budget (~4.5 s each at width 4); this range keeps twenty yields per pass
// (the yield_p50_ms sample) affordable.
const std::vector<double> kSweepSigmas = {0.0, 0.25, 0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0, 2.25};

void run_mesh8(const Options& o) {
  const std::string verilog = o.work + "/mesh8.v";
  const std::string sdc = o.work + "/mesh8.sdc";
  const std::string out_verilog = o.work + "/mesh8_signed_off.v";
  double arrival_ps = 0.0;
  std::vector<Probe> probes;
  std::vector<double> cones;
  timed_setups(5, [&] {
    core::Flow flow(flow_options(o.width));
    op("core.load", [&] { need(flow.load_table1("mesh8"), "load_table1"); });
    // 1% of gates one size smaller. Even this moves the 10-iteration ECO's
    // sigma reduction by about +-12% across seeds (mesh8 has many
    // near-critical paths).
    flow.timing().mutable_netlist().set_sizes(perfbench::seeded_sizes(flow.netlist(), o.seed, 0.01));
    arrival_ps = perfbench::arrival_offset(o.seed, 7, 20.0);
    apply_sdc(flow, perfbench::sdc_text(arrival_ps, std::nullopt), false);
    const opt::CircuitStats st = op("ssta.fullssta", [&] { return flow.analyze(); });
    op("bench_format.write", [&] { need(flow.write_verilog_file(verilog), "write_verilog"); });
    // The paper's 3-sigma corner of the starting design, written in ps.
    write_file(sdc, perfbench::sdc_text(arrival_ps, perfbench::format_ps(st.mean_ps + 3.0 * st.sigma_ps)));
    probes = perfbench::probe_list(perfbench::logic_gate_names(flow.netlist()), o.seed, 200,
                                   kMeshProbes);
    cones = probe_cones(o, flow.netlist(), probes);
  });
  if (o.inputs_only) {
    write_probes(o.work + "/mesh8.probes", probes);
    return;
  }

  run_passes(o, {"mesh8"}, [&](std::size_t) {
    core::Flow flow(flow_options(o.width));
    netlist::Netlist nl = op("bench_format.read", [&] {
      auto r = bench_format::read_verilog_file(verilog, flow.library());
      need(r.status(), "read_verilog");
      return std::move(r.value());
    });
    op("core.load", [&] { need(flow.load_circuit(std::move(nl)), "load_circuit"); });
    op("core.sdc", [&] { need(flow.apply_sdc_file(sdc), "apply_sdc_file"); });
    op("sta.update", [&] { flow.timing().update(); });
    op("drc.preflight", [&] {
      if (flow.preflight().has_errors()) throw std::runtime_error("mesh8: preflight errors");
    });
    const double sdc_clock = *flow.timing().constraints().clock_period_ps;
    const opt::CircuitStats before = op("ssta.fullssta", [&] { return flow.analyze(); });
    std::vector<double> clocks;
    for (const double k : kSweepSigmas) clocks.push_back(sdc_clock + k * before.sigma_ps);
    yield_at(flow, arrival_ps, clocks);
    fassta_run(flow);
    (void)optimize(flow, 3.0, eco_overrides(o.width), "mesh8/eco");
    g.digest("mesh8/eco", size_digest(flow.netlist()));
    (void)op("ssta.fullssta", [&] { return flow.analyze(); });
    fassta_run(flow);
    yield_at(flow, arrival_ps, clocks);
    whatif_probes(flow, probes, cones);
    write_and_verify(flow, out_verilog);
  });
  g.peak_rss_mb = peak_rss_self_mb();
}

// ---------------------------------------------------------------------------
// serve_mixed: closed-loop socket clients against statsizer_serve.
// ---------------------------------------------------------------------------

// Clients sending the what-if / info / SDC mix, one socket each.
constexpr std::size_t kClients = 4;
// Closed-loop clients that send only yields (a served yield costs as much as
// ~500 what-ifs; mixed into the what-if clients' scripts, yields made up
// ~90% of their time). Two keep the yield_p50_ms sample above its 20-sample
// minimum in a 45 s run and leave half the server's workers to what-ifs.
constexpr std::size_t kYieldClients = 2;
// Served yields the reported stream needs for yield_p50_ms (10 beyond it).
constexpr std::size_t kMinYields = 20;
// Yields run against a second tenant serving the same design, so a 3 s
// yield never holds the what-if session's shared lock: the SDC writers on
// the main session wait for what-if readers only.
constexpr const char* kYieldSession = "yield";

/// statsizer_serve child process on a loopback port. Stopped by signal:
/// in socket mode a client's quit ends only its own connection.
class ServerProcess {
 public:
  ServerProcess(const std::string& bin, std::size_t width) {
    for (int attempt = 0; attempt < 5 && pid_ < 0; ++attempt) {
      port_ = free_port();
      const std::string threads = std::to_string(width);
      const std::string port = std::to_string(port_);
      std::vector<std::string> args = {bin, "--threads", threads, "--socket", port,
                                       "--queue-depth", "64"};
      std::vector<char*> argv;
      for (std::string& a : args) argv.push_back(a.data());
      argv.push_back(nullptr);
      pid_t pid = -1;
      if (posix_spawn(&pid, bin.c_str(), nullptr, nullptr, argv.data(), environ) != 0) {
        throw std::runtime_error("cannot start " + bin);
      }
      pid_ = pid;
      if (!wait_listening()) stop();
    }
    if (pid_ < 0) throw std::runtime_error("statsizer_serve did not start listening");
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  [[nodiscard]] int port() const { return port_; }

  /// Peak resident set size of the server so far (VmHWM), in MB.
  [[nodiscard]] double peak_rss_mb() const {
    std::ifstream f("/proc/" + std::to_string(pid_) + "/status");
    std::string line;
    while (std::getline(f, line)) {
      if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
    }
    return 0.0;
  }

  /// SIGTERM, then SIGKILL after 5 s; always reaps the child.
  void stop() {
    if (pid_ < 0) return;
    ::kill(pid_, SIGTERM);
    int status = 0;
    for (int i = 0; i < 500; ++i) {
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    ::kill(pid_, SIGKILL);
    ::waitpid(pid_, &status, 0);
    pid_ = -1;
  }

 private:
  static int free_port() {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      ::close(fd);
      throw std::runtime_error("no free loopback port");
    }
    ::close(fd);
    return ntohs(addr.sin_port);
  }

  bool wait_listening() {
    for (int i = 0; i < 1000; ++i) {
      int status = 0;
      if (::waitpid(pid_, &status, WNOHANG) == pid_) {
        pid_ = -1;
        return false;
      }
      const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      addr.sin_port = htons(static_cast<std::uint16_t>(port_));
      const bool ok = ::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0;
      ::close(fd);
      if (ok) return true;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
    return false;
  }

  pid_t pid_ = -1;
  int port_ = 0;
};

/// One protocol connection: newline-JSON request, newline-JSON reply.
class Client {
 public:
  explicit Client(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      ::close(fd_);
      throw std::runtime_error("cannot connect to statsizer_serve");
    }
    timeval timeout{60, 0};  // hard limit per reply
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
  }
  ~Client() { ::close(fd_); }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one request and returns the parsed reply; throws on I/O failure.
  Json call(const Json& request) {
    const std::string line = request.dump() + "\n";
    for (std::size_t sent = 0; sent < line.size();) {
      const ssize_t n = ::send(fd_, line.data() + sent, line.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) throw std::runtime_error("send failed");
      sent += static_cast<std::size_t>(n);
    }
    for (;;) {
      const std::size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        const std::string reply = buffer_.substr(0, nl);
        buffer_.erase(0, nl + 1);
        auto parsed = Json::parse(reply);
        if (!parsed.ok()) throw std::runtime_error("unparsable reply: " + reply);
        return std::move(parsed.value());
      }
      char chunk[4096];
      const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (n <= 0) throw std::runtime_error("connection closed or reply timed out");
      buffer_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

bool reply_ok(const Json& r) {
  const Json* ok = r.find("ok");
  return ok != nullptr && ok->is_bool() && ok->as_bool();
}

double number(const Json& r, const char* key) {
  const Json* v = r.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : std::nan("");
}

/// What the served design looks like to the request generator.
struct ServedDesign {
  std::string verilog;
  double arrival_ps = 0.0;
  double mean_ps = 0.0;
  double sigma_ps = 0.0;
  std::string initial_sdc;
  std::string initial_clock;
  std::vector<std::string> gates;
};

/// Served replies kept for the output checks.
struct ServeLog {
  std::mutex mutex;
  std::map<std::uint64_t, std::string> sdc_by_epoch;    // epoch -> SDC text
  struct WhatIf {
    std::string gate;
    std::uint16_t size;
    std::uint64_t epoch;
    double mean, sigma, base_mean, base_sigma;
  };
  std::vector<WhatIf> whatifs;  // seeded sample
  struct Yield {
    std::uint64_t epoch;
    double clock, yield;
  };
  std::vector<Yield> yields;
};

std::string sdc_for(const ServedDesign& d, double clock_sigmas) {
  return perfbench::sdc_text(d.arrival_ps, perfbench::format_ps(d.mean_ps + clock_sigmas * d.sigma_ps));
}

Json request_json(const core::Flow& flow, const ServedDesign& d, const Request& r,
                  std::uint64_t id, std::string* sdc_text) {
  Json j;
  j["id"] = id;
  switch (r.op) {
    case Request::Op::kWhatIf: {
      const netlist::GateId gid = flow.netlist().find(r.probe.gate);
      j["op"] = "whatif";
      j["gate"] = r.probe.gate;
      j["size"] = static_cast<int>(probe_size(flow, gid, r.probe.raw_size));
      break;
    }
    case Request::Op::kInfo:
      j["op"] = "info";
      break;
    case Request::Op::kYield:
      j["op"] = "yield";
      j["session"] = kYieldSession;
      break;
    case Request::Op::kSdc:
      j["op"] = "sdc";
      *sdc_text = sdc_for(d, r.clock_sigmas);
      j["text"] = *sdc_text;
      break;
  }
  return j;
}

const char* op_name(Request::Op op) {
  switch (op) {
    case Request::Op::kWhatIf: return "whatif";
    case Request::Op::kInfo: return "info";
    case Request::Op::kYield: return "yield";
    case Request::Op::kSdc: return "sdc";
  }
  return "?";
}

const char* span_name(Request::Op op) {
  switch (op) {
    case Request::Op::kWhatIf: return "serve.whatif";
    case Request::Op::kInfo: return "serve.info";
    case Request::Op::kYield: return "serve.yield";
    case Request::Op::kSdc: return "serve.sdc";
  }
  return "serve.unknown";
}

/// Closed loop: each client sends its next request only after the reply to
/// the previous one. Runs for @p seconds, and on until @p min_yields yields
/// have completed (a slow host still gets a qualifying yield_p50_ms, under
/// the same load); per-op latency is sampled under @p prefix ("" for the
/// reported samples).
void serve_stream(const Options& o, int port, const core::Flow& flow, const ServedDesign& d,
                  const std::vector<std::vector<Request>>& scripts, double seconds,
                  std::size_t min_yields, ServeLog& log, const std::string& prefix,
                  bool record_window) {
  const Clock::time_point start = Clock::now();
  const Clock::time_point deadline =
      start + std::chrono::microseconds(static_cast<long long>(seconds * 1e6));
  // serve_rps window: from start to the deadline, or to the min_yields-th
  // yield if that came later; replies arriving after it are not counted.
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::size_t> yields{0};
  std::atomic<Clock::rep> window_end{deadline.time_since_epoch().count()};
  const auto finished = [&] { return Clock::now() >= deadline && yields.load() >= min_yields; };
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    threads.emplace_back([&, c] {
      try {
        Client client(port);
        perfbench::SeededRng sample_rng(o.seed, 0x5A3D + c);
        const std::vector<Request>& script = scripts[c];
        std::size_t i = 0;
        // Sends the script's next request and waits for the reply; false
        // once the stream has finished.
        const auto send_next = [&]() -> bool {
          if (finished()) return false;
          const Request& r = script[i % script.size()];
          std::string sdc_text;
          const Json req = request_json(flow, d, r, i++, &sdc_text);
          ++g.attempted;
          Span span(span_name(r.op));
          Json reply;
          try {
            reply = client.call(req);
          } catch (...) {
            ++g.failed;
            throw;
          }
          const double ms = span.stop();
          if (!reply_ok(reply)) {
            ++g.failed;
            g.check("served_requests_ok", false, reply.dump());
            return true;
          }
          ++g.succeeded;
          if (!finished()) ++completed;
          if (r.op == Request::Op::kYield && ++yields == min_yields) {
            const Clock::rep now = Clock::now().time_since_epoch().count();
            if (now > window_end.load()) window_end = now;
          }
          g.sample(prefix + op_name(r.op), ms);
          const auto epoch = static_cast<std::uint64_t>(number(reply, "epoch"));
          const std::lock_guard<std::mutex> lock(log.mutex);
          if (r.op == Request::Op::kSdc) {
            log.sdc_by_epoch[epoch] = sdc_text;
          } else if (r.op == Request::Op::kWhatIf && sample_rng.below(64) == 0) {
            log.whatifs.push_back({req.find("gate")->as_string(),
                                   static_cast<std::uint16_t>(req.find("size")->as_number()),
                                   epoch, number(reply, "mean_ps"), number(reply, "sigma_ps"),
                                   number(reply, "base_mean_ps"), number(reply, "base_sigma_ps")});
          } else if (r.op == Request::Op::kYield) {
            log.yields.push_back({epoch, number(reply, "clock_period_ps"), number(reply, "yield")});
          }
          return true;
        };
        if (c >= kClients) {  // a yield client: no blocks
          while (send_next()) {
          }
          return;
        }
        while (!finished()) {
          Span block("bench.pass");
          const Clock::time_point block_start = Clock::now();
          std::size_t sent = 0;
          while (sent < perfbench::kBlockSize && send_next()) ++sent;
          if (sent == perfbench::kBlockSize) {
            g.pass_time("block", g.tracing(), ms_between(block_start, Clock::now()) / 1000.0);
          }
        }
      } catch (const std::exception& e) {
        g.check("served_requests_ok", false, std::string("client: ") + e.what());
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (record_window) {
    g.window_s += ms_between(start, Clock::time_point(Clock::duration(window_end.load()))) / 1000.0;
    g.window_ops += completed.load();
  }
}

/// The same request scripts against an in-process serve::JobManager +
/// Session (no sockets): per-op queue wait and run time, and the in-process
/// latency that serve.protocol_ms is measured against.
void serve_in_process(const Options& o, const core::Flow& flow, const ServedDesign& d,
                      const std::vector<std::vector<Request>>& scripts, double seconds) {
  serve::SessionRef session = std::make_shared<serve::Session>();
  serve::SessionRef yield_session = std::make_shared<serve::Session>();
  for (const serve::SessionRef& s : {session, yield_session}) {
    need(s->load_file(d.verilog), "session load");
    need(s->apply_sdc_text(d.initial_sdc), "session sdc");
  }
  serve::JobManagerOptions mo;
  mo.threads = o.width;
  mo.limits.max_queue_depth = 64;
  serve::JobManager manager(mo);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::microseconds(static_cast<long long>(seconds * 1e6));
  std::vector<std::thread> threads;
  for (std::size_t c = 0; c < scripts.size(); ++c) {
    threads.emplace_back([&, c] {
      const std::vector<Request>& script = scripts[c];
      for (std::size_t i = 0; Clock::now() < deadline; ++i) {
        const Request& r = script[i % script.size()];
        std::function<void()> body;
        if (r.op == Request::Op::kWhatIf) {
          const netlist::GateId gid = flow.netlist().find(r.probe.gate);
          const serve::ResizeRequest resize{r.probe.gate, probe_size(flow, gid, r.probe.raw_size)};
          body = [session, resize] { need(session->what_if({resize}).status(), "what_if"); };
        } else if (r.op == Request::Op::kInfo) {
          body = [session] { (void)session->info(); };
        } else if (r.op == Request::Op::kYield) {
          body = [yield_session] { need(yield_session->yield().status(), "yield"); };
        } else {
          const std::string text = sdc_for(d, r.clock_sigmas);
          body = [session, text] { need(session->apply_sdc_text(text), "sdc"); };
        }
        const Clock::time_point t0 = Clock::now();
        ++g.attempted;
        const serve::JobRef job = manager.submit(std::move(body));
        const Status status = job->wait();
        const double e2e = ms_between(t0, Clock::now());
        if (!status.ok()) {
          ++g.failed;
          g.check("in_process_requests_ok", false, std::string(status.message()));
          continue;
        }
        ++g.succeeded;
        g.counter("serve.queue_ms", job->queue_time().count() / 1000.0);
        if (r.op != Request::Op::kInfo) {
          g.counter(std::string("serve.run_ms.") + op_name(r.op), job->run_time().count() / 1000.0);
        }
        g.sample(std::string("inproc.") + op_name(r.op), e2e);
      }
    });
  }
  for (std::thread& t : threads) t.join();
}

/// Replays a seeded sample of served what-ifs and yields on an idle
/// single-tenant Flow at the same epoch (same design file, same SDC) and
/// requires bitwise-equal results.
void check_against_idle_flow(const Options& o, const ServedDesign& d, ServeLog& log) {
  core::FlowOptions options;  // statsizer_serve's session options
  options.timing.threads = o.width;
  options.fullssta.threads = o.width;
  options.isle.threads = o.width;
  core::Flow ref(options);
  op("core.load", [&] { need(ref.load_verilog_file(d.verilog), "reference load"); });
  std::map<std::uint64_t, std::vector<const ServeLog::WhatIf*>> by_epoch;
  for (const ServeLog::WhatIf& w : log.whatifs) by_epoch[w.epoch].push_back(&w);
  std::size_t compared = 0;
  for (const auto& [epoch, list] : by_epoch) {
    const auto sdc = log.sdc_by_epoch.find(epoch);
    const std::string text = sdc != log.sdc_by_epoch.end() ? sdc->second : d.initial_sdc;
    apply_sdc(ref, text, false);
    auto analyzer = op("ssta.fullssta", [&] {
      auto a = ref.make_analyzer("fullssta");
      (void)a->analyze(ref.timing());
      return a;
    });
    for (const ServeLog::WhatIf* w : list) {
      const netlist::GateId id = ref.netlist().find(w->gate);
      const timing::Summary score = op("timing.whatif", [&] {
        auto spec = analyzer->propose(id, w->size);
        timing::Summary s = spec->score();
        spec->rollback();
        return s;
      });
      if (g.tracing()) g.counter("timing.whatif_cone_gates", static_cast<double>(cone_gates(ref.netlist(), id)));
      const timing::Summary& base = analyzer->current();
      const bool same = score.mean_ps == w->mean && score.sigma_ps == w->sigma &&
                        base.mean_ps == w->base_mean && base.sigma_ps == w->base_sigma;
      char detail[256];
      std::snprintf(detail, sizeof(detail), "%s size %u epoch %llu: served %.17g/%.17g, idle %.17g/%.17g",
                    w->gate.c_str(), w->size, static_cast<unsigned long long>(epoch), w->mean,
                    w->sigma, score.mean_ps, score.sigma_ps);
      g.check("served_whatif_bitwise_equals_idle_flow", same, detail);
      ++compared;
    }
  }
  g.check("served_whatif_sample_nonempty", compared > 0, "no what-if sampled");
  // Served yields (all on the yield session's initial SDC): the clock must
  // be the one that SDC wrote, in ps, and the estimate must equal the idle
  // flow's bitwise.
  apply_sdc(ref, d.initial_sdc, false);
  const core::YieldReport r = op("ssta.isle", [&] { return ref.estimate_yield(0.0); });
  g.counter("ssta.isle_draws", static_cast<double>(r.draws()));
  g.counter("ssta.isle_ess_ratio", r.draws() ? r.result.ess / static_cast<double>(r.draws()) : 0.0);
  for (const ServeLog::Yield& y : log.yields) {
    g.check("yield_clock_is_sdc_ps", y.clock == perfbench::parse_ps(d.initial_clock),
            "wrote " + d.initial_clock + " ps, server used " + std::to_string(y.clock));
    g.check("served_yield_bitwise_equals_idle_flow", r.yield() == y.yield,
            std::to_string(r.yield()) + " vs served " + std::to_string(y.yield));
  }
  g.check("served_yield_sample_nonempty", !log.yields.empty(), "no yield served");
}

void run_serve(const Options& o) {
  const std::string verilog = o.work + "/c6288_eco.v";
  ServedDesign design;
  std::unique_ptr<core::Flow> eco;
  std::unique_ptr<ServerProcess> server;
  const auto setup = [&](bool start_server) {
    // The served design: c6288 with a seeded input arrival after the same
    // bounded ECO the sign-off workload runs, handed over as Verilog.
    eco = std::make_unique<core::Flow>(flow_options(o.width));
    op("core.load", [&] { need(eco->load_table1("c6288"), "load_table1"); });
    design.arrival_ps = perfbench::arrival_offset(o.seed, 11, 20.0);
    apply_sdc(*eco, perfbench::sdc_text(design.arrival_ps, std::nullopt), false);
    (void)optimize(*eco, 3.0, eco_overrides(o.width), "c6288/eco");
    g.digest("c6288/eco", size_digest(eco->netlist()));
    const opt::CircuitStats st = op("ssta.fullssta", [&] { return eco->analyze(); });
    design.mean_ps = st.mean_ps;
    design.sigma_ps = st.sigma_ps;
    design.verilog = verilog;
    design.initial_clock = perfbench::format_ps(st.mean_ps + 3.0 * st.sigma_ps);
    design.initial_sdc = perfbench::sdc_text(design.arrival_ps, design.initial_clock);
    design.gates = perfbench::logic_gate_names(eco->netlist());
    write_and_verify(*eco, verilog);
    if (!start_server) return;
    server.reset();
    server = std::make_unique<ServerProcess>(o.serve_bin, o.width);
    Client admin(server->port());
    for (const char* session : {"default", kYieldSession}) {
      Json load;
      load["op"] = "load";
      load["session"] = session;
      load["file"] = verilog;
      Json sdc;
      sdc["op"] = "sdc";
      sdc["session"] = session;
      sdc["text"] = design.initial_sdc;
      for (const Json* req : {&load, &sdc}) {
        const Json reply = op("serve.load", [&] { return admin.call(*req); });
        if (!reply_ok(reply)) throw std::runtime_error("server setup: " + reply.dump());
      }
    }
  };
  if (o.inputs_only) {
    setup(false);
    for (std::size_t c = 0; c < kClients; ++c) {
      write_file(o.work + "/client" + std::to_string(c) + ".requests",
                 perfbench::describe(perfbench::request_script(design.gates, o.seed, c, kClients, 4)));
    }
    write_file(o.work + "/initial.sdc", design.initial_sdc);
    return;
  }
  timed_setups(3, [&] { setup(true); });

  std::vector<std::vector<Request>> scripts;
  for (std::size_t c = 0; c < kClients; ++c) {
    scripts.push_back(perfbench::request_script(design.gates, o.seed, c, kClients, 64));
  }
  scripts.insert(scripts.end(), kYieldClients, {Request{Request::Op::kYield, {}, 0.0}});
  ServeLog log;
  const double stream_s = o.trace ? o.seconds / 2.0 : o.seconds;
  g.set_tracing(false);
  serve_stream(o, server->port(), *eco, design, scripts, stream_s, kMinYields, log, "", true);
  if (o.trace) {
    g.set_tracing(true);
    serve_stream(o, server->port(), *eco, design, scripts, stream_s, 0, log, "traced.", false);
  }
  {
    Client admin(server->port());
    Json status;
    status["id"] = 0;
    status["op"] = "status";
    const Json reply = admin.call(status);
    g.counter("serve.shed", number(reply, "shed"));
    g.counter("serve.retried", number(reply, "retried"));
  }
  g.peak_rss_mb = server->peak_rss_mb();
  server->stop();
  if (o.trace) serve_in_process(o, *eco, design, scripts, stream_s);
  check_against_idle_flow(o, design, log);
}

// ---------------------------------------------------------------------------

Json provenance(const Options& o) {
  Json p;
  p["statsizer_flags"] = PERFBENCH_STATSIZER_FLAGS;
  p["build_type"] = PERFBENCH_BUILD_TYPE;
  p["sanitize"] = PERFBENCH_SANITIZE;
  p["paranoid"] = debug::paranoid_enabled();
  p["nproc"] = o.nproc;
  p["width"] = o.width;
  return p;
}

/// Instrumented builds measure the instrumentation, not statsizer.
std::string refusal() {
  const std::string flags = PERFBENCH_STATSIZER_FLAGS;
  const std::string sanitize = PERFBENCH_SANITIZE;
  if (debug::paranoid_enabled()) return "statsizer was built with STATSIZER_PARANOID";
  if (flags.find("-fsanitize") != std::string::npos) return "statsizer was built with " + flags;
  if (!sanitize.empty() && sanitize != "OFF" && sanitize != "0" && sanitize != "FALSE") {
    return "statsizer was built with STATSIZER_SANITIZE=" + sanitize;
  }
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "the driver was built with a sanitizer";
#endif
  return {};
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_driver --workload W --seed N --seconds S --trace 0|1 --width N\n"
               "       --nproc N --work DIR --out FILE --serve-bin PATH [--inputs-only]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--inputs-only") {
      o.inputs_only = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const std::string value = argv[++i];
    if (arg == "--workload") o.workload = value;
    else if (arg == "--seed") o.seed = std::strtoull(value.c_str(), nullptr, 10);
    else if (arg == "--seconds") o.seconds = std::strtod(value.c_str(), nullptr);
    else if (arg == "--trace") o.trace = value == "1";
    else if (arg == "--width") o.width = std::strtoul(value.c_str(), nullptr, 10);
    else if (arg == "--nproc") o.nproc = std::strtoul(value.c_str(), nullptr, 10);
    else if (arg == "--work") o.work = value;
    else if (arg == "--out") o.out = value;
    else if (arg == "--serve-bin") o.serve_bin = value;
    else return usage();
  }
  if (o.work.empty() || o.width == 0 || (o.out.empty() && !o.inputs_only)) return usage();
  if (const std::string why = refusal(); !why.empty()) {
    std::fprintf(stderr, "perfbench_driver: refusing to measure: %s\n", why.c_str());
    return 3;
  }

  // Progress for the harness: if this process hangs or dies, the last line
  // tells it how many operations were started and how many finished.
  std::atomic<bool> running{true};
  std::thread progress([&] {
    while (running) {
      std::printf("progress %llu %llu %llu\n", static_cast<unsigned long long>(g.attempted.load()),
                  static_cast<unsigned long long>(g.succeeded.load()),
                  static_cast<unsigned long long>(g.failed.load()));
      std::fflush(stdout);
      for (int i = 0; i < 10 && running; ++i) std::this_thread::sleep_for(std::chrono::milliseconds(100));
    }
  });

  int code = 0;
  g.set_tracing(o.trace);
  try {
    if (o.workload == "table1_flow") {
      run_table1(o);
    } else if (o.workload == "signoff_mesh8") {
      run_mesh8(o);
    } else if (o.workload == "serve_mixed") {
      run_serve(o);
    } else {
      std::fprintf(stderr, "perfbench_driver: unknown workload '%s'\n", o.workload.c_str());
      code = 2;
    }
    if (o.trace && code == 0 && !o.inputs_only) {
      g.set_tracing(true);
      pdf_microbench();
    }
  } catch (const std::exception& e) {
    g.check("run_completed", false, e.what());
  }
  running = false;
  progress.join();
  if (code != 0 || o.inputs_only) return code;
  g.check("run_completed", true);
  if (o.trace) g.write_trace(o.work + "/trace.json");
  std::ofstream out(o.out);
  out << g.to_json(provenance(o)).dump() << "\n";
  return out ? 0 : 1;
}
