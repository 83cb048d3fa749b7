#include "serve/server.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <istream>
#include <limits>
#include <ostream>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "util/json.h"

namespace statsizer::serve {

namespace {

using util::Json;

/// A present field of the wrong JSON type is an invalid_argument naming it:
/// falling back to the default would serve a request the client did not
/// send (a string deadline_ms would run with no deadline at all).
Status wrong_type(std::string_view key, std::string_view type) {
  return Status::invalid_argument("'" + std::string(key) + "' must be a " + std::string(type));
}

StatusOr<std::string> get_string(const Json& req, std::string_view key,
                                 std::string_view fallback) {
  const Json* v = req.find(key);
  if (v == nullptr) return std::string(fallback);
  if (!v->is_string()) return wrong_type(key, "string");
  return v->as_string();
}

StatusOr<double> get_number(const Json& req, std::string_view key, double fallback) {
  const Json* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_number()) return wrong_type(key, "number");
  return v->as_number();
}

StatusOr<bool> get_bool(const Json& req, std::string_view key, bool fallback) {
  const Json* v = req.find(key);
  if (v == nullptr) return fallback;
  if (!v->is_bool()) return wrong_type(key, "boolean");
  return v->as_bool();
}

/// An integral field in [0, max]. A negative, non-integral or larger value
/// (NaN and 1e300 included) is an invalid_argument naming the field: the
/// integer casts downstream would be undefined behaviour on it.
StatusOr<double> check_integer(double v, std::string_view key, double max) {
  if (!(v >= 0.0 && v <= max) || std::trunc(v) != v) {
    return Status::invalid_argument("'" + std::string(key) + "' must be an integer in [0, " +
                                    std::to_string(static_cast<std::int64_t>(max)) + "]");
  }
  return v;
}

/// An optional integral field in [0, max]; absent reads as 0.
StatusOr<double> get_integer(const Json& req, std::string_view key, double max) {
  const StatusOr<double> v = get_number(req, key, 0.0);
  return v.ok() ? check_integer(v.value(), key, max) : v;
}

/// One resize of a what-if: a string 'gate' and a 'size' index in [0, 65535].
Status parse_resize(const Json& e, std::string_view size_key, std::vector<ResizeRequest>& out) {
  const Json* gate = e.find("gate");
  const Json* size = e.find("size");
  if (gate == nullptr || !gate->is_string() || size == nullptr || !size->is_number()) {
    return Status::invalid_argument(
        "whatif: needs a string 'gate' and a numeric 'size' (or a 'resizes' array)");
  }
  const StatusOr<double> index =
      check_integer(size->as_number(), size_key, std::numeric_limits<std::uint16_t>::max());
  if (!index.ok()) return index.status();
  out.push_back(ResizeRequest{gate->as_string(), static_cast<std::uint16_t>(index.value())});
  return Status();
}

Status parse_resizes(const Json& req, std::vector<ResizeRequest>& out) {
  const Json* arr = req.find("resizes");
  if (arr == nullptr) return parse_resize(req, "size", out);
  if (!arr->is_array() || arr->as_array().empty()) {
    return Status::invalid_argument("whatif: 'resizes' must be a non-empty array");
  }
  for (std::size_t i = 0; i < arr->as_array().size(); ++i) {
    const std::string key = "resizes[" + std::to_string(i) + "].size";
    if (Status s = parse_resize(arr->as_array()[i], key, out); !s.ok()) return s;
  }
  return Status();
}

/// The first failed status among @p fields, or ok.
template <typename... Fields>
Status first_error(const Fields&... fields) {
  Status out;
  ((out.ok() && !fields.ok() ? (void)(out = fields.status()) : (void)0), ...);
  return out;
}

/// One output line, in request order. Either an already-rendered inline
/// response (malformed input, status, quit) or a submitted job whose payload
/// the body fills on success.
struct Pending {
  Json id;
  JobRef job;                           // null for inline responses
  std::shared_ptr<Json> payload;        // success payload (job responses)
  Json inline_response;
};

Json render(const Json& id, const Status& status, const Json* payload,
            std::chrono::milliseconds retry_after) {
  Json r;
  if (status.ok()) {
    if (payload != nullptr) r = *payload;
    r["ok"] = true;
  } else {
    r["ok"] = false;
    r["code"] = to_string(status.code());
    r["error"] = std::string(status.message());
    if (status.code() == StatusCode::kResourceExhausted && retry_after.count() > 0) {
      r["retry_after_ms"] = static_cast<double>(retry_after.count());
    }
  }
  r["id"] = id;
  return r;
}

Json render_inline(const Json& id, const Status& status) {
  return render(id, status, nullptr, std::chrono::milliseconds(0));
}

}  // namespace

Server::Server(ServerOptions options) : options_(std::move(options)) {
  JobManagerOptions mo;
  mo.threads = options_.threads;
  mo.limits = options_.limits;
  mo.faults = options_.faults.empty() ? nullptr : &options_.faults;
  manager_ = std::make_unique<JobManager>(mo);
}

Server::~Server() = default;

SessionRef Server::session_for(const std::string& name) {
  const std::lock_guard<std::mutex> lock(sessions_mutex_);
  auto it = sessions_.find(name);
  if (it == sessions_.end()) {
    it = sessions_.emplace(name, std::make_shared<Session>(options_.session)).first;
  }
  return it->second;
}

std::uint64_t Server::run(std::istream& in, std::ostream& out) {
  std::deque<Pending> queue;
  std::mutex queue_mutex;
  std::condition_variable queue_cv;
  bool closed = false;
  std::uint64_t served = 0;

  // Single writer: drains completions in submission order, so responses come
  // back in request order and output lines never interleave.
  std::thread writer([&] {
    for (;;) {
      Pending entry;
      {
        std::unique_lock<std::mutex> lock(queue_mutex);
        queue_cv.wait(lock, [&] { return !queue.empty() || closed; });
        if (queue.empty()) return;
        entry = std::move(queue.front());
        queue.pop_front();
      }
      Json response;
      if (entry.job != nullptr) {
        const Status status = entry.job->wait();
        response = render(entry.id, status, entry.payload.get(), entry.job->retry_after());
      } else {
        response = std::move(entry.inline_response);
      }
      out << response.dump() << '\n' << std::flush;
      ++served;
    }
  });

  const auto enqueue = [&](Pending entry) {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    queue.push_back(std::move(entry));
    queue_cv.notify_one();
  };
  const auto enqueue_inline = [&](Json response) {
    Pending entry;
    entry.inline_response = std::move(response);
    enqueue(std::move(entry));
  };

  std::string line;
  while (std::getline(in, line)) {
    if (line.find_first_not_of(" \t\r") == std::string::npos) continue;

    auto parsed = Json::parse(line);
    if (!parsed.ok()) {
      enqueue_inline(render_inline(Json(), parsed.status()));
      continue;
    }
    const Json& req = parsed.value();
    const Json* id_field = req.find("id");
    const Json id = id_field != nullptr ? *id_field : Json();
    const StatusOr<std::string> op_field = get_string(req, "op", "");
    if (!op_field.ok() || op_field.value().empty()) {
      enqueue_inline(render_inline(
          id, op_field.ok() ? Status::invalid_argument("missing string 'op'") : op_field.status()));
      continue;
    }
    const std::string& op = op_field.value();

    if (op == "quit") {
      manager_->wait_all();
      Json response;
      response["ok"] = true;
      response["id"] = id;
      enqueue_inline(std::move(response));
      break;
    }
    if (op == "status") {
      const JobStats s = manager_->stats();
      Json response;
      response["ok"] = true;
      response["id"] = id;
      response["submitted"] = s.submitted;
      response["completed"] = s.completed;
      response["failed"] = s.failed;
      response["cancelled"] = s.cancelled;
      response["deadline_exceeded"] = s.deadline_exceeded;
      response["shed"] = s.shed;
      response["retried"] = s.retried;
      response["queue_depth"] = s.queue_depth;
      response["running"] = s.running;
      {
        const std::lock_guard<std::mutex> lock(sessions_mutex_);
        response["sessions"] = sessions_.size();
      }
      enqueue_inline(std::move(response));
      continue;
    }

    // The deadline counts from submission on the steady clock, so its limit
    // is the clock's remaining range.
    using Clock = std::chrono::steady_clock;
    const auto deadline_range = std::chrono::duration_cast<std::chrono::milliseconds>(
        Clock::time_point::max() - Clock::now());
    const StatusOr<double> priority =
        get_integer(req, "priority", std::numeric_limits<int>::max());
    const StatusOr<double> deadline_ms =
        get_integer(req, "deadline_ms", static_cast<double>(deadline_range.count()));
    const StatusOr<std::string> session_name = get_string(req, "session", "default");
    if (const Status s = first_error(priority, deadline_ms, session_name); !s.ok()) {
      enqueue_inline(render_inline(id, s));
      continue;
    }
    const SessionRef session = session_for(session_name.value());
    JobOptions job_options;
    job_options.priority = static_cast<int>(priority.value());
    job_options.deadline =
        std::chrono::milliseconds(static_cast<std::int64_t>(deadline_ms.value()));

    auto payload = std::make_shared<Json>();
    std::function<void()> body;

    if (op == "load") {
      const StatusOr<std::string> workload_field = get_string(req, "workload", "");
      const StatusOr<std::string> file_field = get_string(req, "file", "");
      const StatusOr<bool> baseline_field = get_bool(req, "baseline", false);
      if (const Status s = first_error(workload_field, file_field, baseline_field); !s.ok()) {
        enqueue_inline(render_inline(id, s));
        continue;
      }
      const std::string workload = workload_field.value();
      const std::string file = file_field.value();
      const bool baseline = baseline_field.value();
      if (workload.empty() == file.empty()) {
        enqueue_inline(render_inline(
            id, Status::invalid_argument("load: needs exactly one of 'workload' / 'file'")));
        continue;
      }
      job_options.cost_bytes = 1 << 20;  // design size unknown until loaded
      body = [session, workload, file, baseline, payload] {
        const Status s = workload.empty() ? session->load_file(file, baseline)
                                          : session->load_workload(workload, baseline);
        if (!s.ok()) throw StatusError(s);
        const SessionInfo info = session->info();
        Json& p = *payload;
        p["circuit"] = info.circuit;
        p["gates"] = info.gates;
        p["epoch"] = info.epoch;
        p["mean_ps"] = info.mean_ps;
        p["sigma_ps"] = info.sigma_ps;
      };
    } else if (op == "sdc") {
      const Json* text = req.find("text");
      if (text == nullptr || !text->is_string()) {
        enqueue_inline(render_inline(id, Status::invalid_argument("sdc: needs string 'text'")));
        continue;
      }
      const std::string sdc = text->as_string();
      job_options.cost_bytes = session->approx_cost_bytes();
      body = [session, sdc, payload] {
        if (const Status s = session->apply_sdc_text(sdc); !s.ok()) throw StatusError(s);
        (*payload)["epoch"] = session->info().epoch;
      };
    } else if (op == "whatif") {
      std::vector<ResizeRequest> resizes;
      if (const Status s = parse_resizes(req, resizes); !s.ok()) {
        enqueue_inline(render_inline(id, s));
        continue;
      }
      body = [session, resizes, payload] {
        const StatusOr<WhatIfReport> r = session->what_if(resizes);
        if (!r.ok()) throw StatusError(r.status());
        const WhatIfReport& w = r.value();
        Json& p = *payload;
        p["epoch"] = w.epoch;
        p["mean_ps"] = w.mean_ps;
        p["sigma_ps"] = w.sigma_ps;
        p["base_mean_ps"] = w.base_mean_ps;
        p["base_sigma_ps"] = w.base_sigma_ps;
        p["delta_mean_ps"] = w.mean_ps - w.base_mean_ps;
        p["delta_sigma_ps"] = w.sigma_ps - w.base_sigma_ps;
      };
    } else if (op == "size") {
      const Json* lambda = req.find("lambda");
      if (lambda == nullptr || !lambda->is_number()) {
        enqueue_inline(
            render_inline(id, Status::invalid_argument("size: needs numeric 'lambda'")));
        continue;
      }
      const double lambda_value = lambda->as_number();
      job_options.cost_bytes = session->approx_cost_bytes();
      body = [session, lambda_value, payload] {
        const StatusOr<SizeResult> r = session->size(lambda_value);
        if (!r.ok()) throw StatusError(r.status());
        const SizeResult& s = r.value();
        Json& p = *payload;
        p["epoch"] = s.epoch;
        p["lambda"] = s.record.lambda;
        p["mean_ps"] = s.record.after.mean_ps;
        p["sigma_ps"] = s.record.after.sigma_ps;
        p["area_um2"] = s.record.after.area_um2;
        p["mean_change"] = s.record.mean_change;
        p["sigma_change"] = s.record.sigma_change;
        p["area_change"] = s.record.area_change;
        p["iterations"] = s.record.iterations;
        p["resizes"] = s.record.resizes;
      };
    } else if (op == "yield") {
      const StatusOr<double> clock_field = get_number(req, "clock_period_ps", 0.0);
      const StatusOr<std::string> engine_field = get_string(req, "engine", "isle");
      if (const Status s = first_error(clock_field, engine_field); !s.ok()) {
        enqueue_inline(render_inline(id, s));
        continue;
      }
      const double clock = clock_field.value();
      const std::string engine = engine_field.value();
      job_options.cost_bytes = session->approx_cost_bytes();
      body = [session, clock, engine, payload] {
        const StatusOr<YieldResult> r = session->yield(clock, engine);
        if (!r.ok()) throw StatusError(r.status());
        const YieldResult& y = r.value();
        Json& p = *payload;
        p["epoch"] = y.epoch;
        p["engine"] = y.engine;
        p["yield"] = y.yield;
        p["std_error"] = y.std_error;
        p["draws"] = y.draws;
        p["clock_period_ps"] = y.clock_period_ps;
      };
    } else if (op == "info") {
      body = [session, payload] {
        const SessionInfo info = session->info();
        Json& p = *payload;
        p["epoch"] = info.epoch;
        p["loaded"] = info.loaded;
        p["circuit"] = info.circuit;
        p["gates"] = info.gates;
        p["mean_ps"] = info.mean_ps;
        p["sigma_ps"] = info.sigma_ps;
        p["area_um2"] = info.area_um2;
      };
    } else {
      enqueue_inline(render_inline(
          id, Status::invalid_argument(
                  "unknown op '" + op +
                  "' (known: load, sdc, whatif, size, yield, info, status, quit)")));
      continue;
    }

    Pending entry;
    entry.id = id;
    entry.payload = payload;
    entry.job = manager_->submit(std::move(body), job_options);
    enqueue(std::move(entry));
  }

  {
    const std::lock_guard<std::mutex> lock(queue_mutex);
    closed = true;
    queue_cv.notify_one();
  }
  writer.join();
  return served;
}

}  // namespace statsizer::serve
