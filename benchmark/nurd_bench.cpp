// nurd_bench — the repository's benchmark program. benchmark/README.md has
// the workloads and why each was chosen, the metric glossary, and how to
// run, trace and compare; benchmark/run.py builds and drives this binary.
//
//   nurd_bench --workload=<name> [--seed=<n>] [--seconds=<s>] [--trace=<stem>]
//
// One workload per process, so peak RSS is the workload's own. The program
// under test receives only generated jobs, and --seed offsets every
// generator seed. Timing is taken from outside, around calls into the
// library's public API: ShardedMonitor construction and run(),
// eval::OnlineJobRun's predictor calls (through a delegating predictor),
// core::FitSession, core::refit_finished_gbt, ml::LogisticRegression::fit,
// kernel::ops() and sched::simulate_cluster_replicated. Nothing under src/
// is instrumented.
//
// Without --trace the run reports the end-to-end metrics. With --trace it
// serves the workload twice, plain and under a stage-timing predictor
// wrapper, replays NURD's refit components serially, probes the kernel
// primitives at the workload's late finished-block shape, reports the
// per-layer metrics, and writes <stem>.layers.json plus a Chrome trace-event
// file <stem>.trace.json (open it in Perfetto or chrome://tracing). Either
// way the LAST line of stdout is one JSON object
//   {"correct": bool, "attempted": n, "failed": n, "metrics": {...}}
// and the exit code is non-zero when a correctness check failed.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <mutex>
#include <new>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "core/fit_session.h"
#include "core/predictor.h"
#include "core/registry.h"
#include "core/task_dag.h"
#include "eval/harness.h"
#include "kernel/kernel.h"
#include "ml/gbt.h"
#include "ml/logistic.h"
#include "scenario/scenario.h"
#include "sched/cluster.h"
#include "serve/shard_pool.h"
#include "trace/job.h"

// ---- allocation counting ---------------------------------------------------
// The counters are per thread and fold into the process totals when a thread
// exits: one shared atomic bumped on every allocation would bounce a cache
// line between the fleet's workers and slow the very phase being measured.
// Every thread a measured phase starts is joined before the phase ends, so
// the folded totals are exact at phase boundaries.
namespace {

std::atomic<std::uint64_t> g_alloc_count{0};
std::atomic<std::uint64_t> g_alloc_bytes{0};

struct ThreadAllocs {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
  ~ThreadAllocs() {
    g_alloc_count.fetch_add(count, std::memory_order_relaxed);
    g_alloc_bytes.fetch_add(bytes, std::memory_order_relaxed);
  }
};
thread_local ThreadAllocs t_allocs;

void* counted_alloc(std::size_t size, std::size_t align) {
  ++t_allocs.count;
  t_allocs.bytes += size;
  if (size == 0) size = 1;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) throw std::bad_alloc{};
  return p;
}

}  // namespace

// GCC 12's -Wmismatched-new-delete pairs an inlined caller's `delete` with
// the malloc inside these replacements and reports a mismatch that cannot
// exist (the replacement deletes free with std::free).
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic push
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"
#endif
void* operator new(std::size_t size) { return counted_alloc(size, 0); }
void* operator new[](std::size_t size) { return counted_alloc(size, 0); }
void* operator new(std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return counted_alloc(size, static_cast<std::size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
#if defined(__GNUC__) && !defined(__clang__)
#pragma GCC diagnostic pop
#endif

namespace {

using namespace nurd;
using Clock = std::chrono::steady_clock;

/// Load-generating threads: the container's core count. The fleet's stage
/// workers, the generator and the correctness re-runs all use this many.
constexpr std::size_t kThreads = 4;

/// Every 8th job is re-run through eval::run_job as the correctness oracle.
constexpr std::size_t kCheckStride = 8;

/// Generator, arrival and placement seed of the quality job set. It does not
/// depend on --seed, so macro_f1 is one exact number per commit: a change to
/// any decision moves it, and its bound can be 0.
constexpr std::uint64_t kQualitySeed = 1000003;

/// Replications per simulate_cluster_replicated call on sim-chaos, two per
/// lane. A call's wall time is the latency of one replicated answer. With
/// one replication per lane, a late lane idled the other three and the
/// calls' throughput read less steady.
constexpr std::size_t kReplications = 2 * kThreads;

struct AllocTotals {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

/// Process totals as seen from the main thread: every exited thread plus
/// the main thread's own counter.
AllocTotals alloc_totals() {
  return {g_alloc_count.load(std::memory_order_relaxed) + t_allocs.count,
          g_alloc_bytes.load(std::memory_order_relaxed) + t_allocs.bytes};
}

double seconds_between(Clock::time_point begin, Clock::time_point end) {
  return std::chrono::duration<double>(end - begin).count();
}

double seconds_since(Clock::time_point begin) {
  return seconds_between(begin, Clock::now());
}

/// Nearest-rank percentile, the convention serve/shard_pool reports with.
double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto idx = static_cast<std::size_t>(q * static_cast<double>(values.size()));
  return values[std::min(idx, values.size() - 1)];
}

/// Median; the mean of the two middle values for an even count.
double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  const std::size_t mid = values.size() / 2;
  std::nth_element(values.begin(), values.begin() + mid, values.end());
  const double upper = values[mid];
  if (values.size() % 2 == 1) return upper;
  return 0.5 * (upper + *std::max_element(values.begin(), values.begin() + mid));
}

/// Mean of the largest `share` of the values (at least one). Unlike a single
/// order statistic it keeps its resolution when the values are a few
/// nanoseconds apart.
double tail_mean(std::vector<double> values, double share) {
  if (values.empty()) return 0.0;
  const auto n = std::max<std::size_t>(
      1, static_cast<std::size_t>(share * static_cast<double>(values.size())));
  std::nth_element(values.begin(), values.end() - n, values.end());
  double sum = 0.0;
  for (auto it = values.end() - n; it != values.end(); ++it) sum += *it;
  return sum / static_cast<double>(n);
}

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

/// Peak resident set size of this process, MiB (Linux reports KiB).
double peak_rss_mib() {
  struct rusage usage {};
  if (getrusage(RUSAGE_SELF, &usage) != 0) return 0.0;
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

// ---- flags -----------------------------------------------------------------

/// "--name=value" flags. Unknown or malformed flags are errors: a typo must
/// not silently run a different benchmark.
class Flags {
 public:
  Flags(int argc, char** argv) {
    for (int i = 1; i < argc; ++i) {
      const std::string_view arg(argv[i]);
      const auto eq = arg.find('=');
      if (!arg.starts_with("--") || eq == std::string_view::npos) {
        throw std::invalid_argument("expected --name=value, got '" +
                                    std::string(arg) + "'");
      }
      values_[std::string(arg.substr(2, eq - 2))] =
          std::string(arg.substr(eq + 1));
    }
  }

  std::string take(const std::string& name, std::string fallback) {
    const auto it = values_.find(name);
    if (it == values_.end()) return fallback;
    std::string value = it->second;
    values_.erase(it);
    return value;
  }

  double take_number(const std::string& name, double fallback) {
    const std::string text = take(name, "");
    if (text.empty()) return fallback;
    char* end = nullptr;
    const double value = std::strtod(text.c_str(), &end);
    if (end == text.c_str() || *end != '\0' || !std::isfinite(value) ||
        value < 0.0) {
      throw std::invalid_argument("--" + name + " needs a non-negative number");
    }
    return value;
  }

  void reject_unknown() const {
    if (!values_.empty()) {
      throw std::invalid_argument("unknown flag --" + values_.begin()->first);
    }
  }

 private:
  std::map<std::string, std::string> values_;
};

// ---- JSON output -----------------------------------------------------------

/// Minimal streaming JSON writer: objects, arrays, strings and numbers.
/// Positional: key() before each value inside an object.
class JsonWriter {
 public:
  JsonWriter& begin_object() { return open('{'); }
  JsonWriter& end_object() { return close('}'); }
  JsonWriter& begin_array() { return open('['); }
  JsonWriter& end_array() { return close(']'); }
  JsonWriter& key(std::string_view k) {
    separate();
    quote(k);
    out_ += ':';
    after_key_ = true;
    return *this;
  }
  JsonWriter& value(std::string_view v) {
    separate();
    quote(v);
    return *this;
  }
  JsonWriter& value(double v) {
    separate();
    char buf[32];
    std::snprintf(buf, sizeof buf, "%.17g", std::isfinite(v) ? v : 0.0);
    out_ += buf;
    return *this;
  }
  JsonWriter& value(std::uint64_t v) {
    separate();
    out_ += std::to_string(v);
    return *this;
  }
  JsonWriter& value(bool v) {
    separate();
    out_ += v ? "true" : "false";
    return *this;
  }
  const std::string& str() const { return out_; }

 private:
  JsonWriter& open(char c) {
    separate();
    out_ += c;
    first_.push_back(true);
    return *this;
  }
  JsonWriter& close(char c) {
    first_.pop_back();
    out_ += c;
    return *this;
  }
  void separate() {
    if (after_key_) {
      after_key_ = false;
      return;
    }
    if (!first_.empty()) {
      if (!first_.back()) out_ += ',';
      first_.back() = false;
    }
  }
  void quote(std::string_view s) {
    out_ += '"';
    for (const char c : s) {
      if (c == '"' || c == '\\') {
        out_ += '\\';
        out_ += c;
      } else if (static_cast<unsigned char>(c) < 0x20) {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", c);
        out_ += buf;
      } else {
        out_ += c;
      }
    }
    out_ += '"';
  }

  std::string out_;
  std::vector<bool> first_;
  bool after_key_ = false;
};

bool write_file(const std::string& path, const std::string& text) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(text.data(), 1, text.size(), f) == text.size();
  return std::fclose(f) == 0 && ok;
}

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

// ---- tracing ---------------------------------------------------------------

/// Small dense index of the calling thread (Chrome trace "tid").
std::uint32_t thread_index() {
  static std::atomic<std::uint32_t> next{0};
  thread_local const std::uint32_t index = next.fetch_add(1);
  return index;
}

struct Span {
  std::string name;
  const char* category = "";
  std::uint32_t tid = 0;
  double begin_us = 0.0;
  double duration_us = 0.0;
  std::string detail;
};

/// In-memory span store, written once as Chrome trace-event JSON when the
/// run ends. Capped so a long traced run cannot grow the file without bound;
/// spans past the cap are counted, not kept.
class Tracer {
 public:
  static constexpr std::size_t kMaxSpans = 200000;

  explicit Tracer(Clock::time_point origin) : origin_(origin) {}

  Span make(std::string name, const char* category, Clock::time_point begin,
            Clock::time_point end, std::string detail = {}) const {
    return {std::move(name), category, thread_index(),
            1e6 * seconds_between(origin_, begin),
            1e6 * seconds_between(begin, end), std::move(detail)};
  }

  void add(Span span) {
    std::lock_guard<std::mutex> lock(mutex_);
    keep(std::move(span));
  }

  void add(std::vector<Span> spans) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Span& span : spans) keep(std::move(span));
  }

  /// Records [begin, now) on the calling thread.
  void record(std::string name, const char* category, Clock::time_point begin,
              std::string detail = {}) {
    add(make(std::move(name), category, begin, Clock::now(), std::move(detail)));
  }

  bool write(const std::string& path) const {
    std::lock_guard<std::mutex> lock(mutex_);
    JsonWriter json;
    json.begin_object();
    json.key("displayTimeUnit").value("ms");
    json.key("otherData").begin_object();
    json.key("dropped_spans").value(static_cast<std::uint64_t>(dropped_));
    json.end_object();
    json.key("traceEvents").begin_array();
    for (const Span& s : spans_) {
      json.begin_object();
      json.key("name").value(s.name);
      json.key("cat").value(s.category);
      json.key("ph").value("X");
      json.key("pid").value(std::uint64_t{1});
      json.key("tid").value(static_cast<std::uint64_t>(s.tid));
      json.key("ts").value(s.begin_us);
      json.key("dur").value(s.duration_us);
      if (!s.detail.empty()) {
        json.key("args").begin_object();
        json.key("detail").value(s.detail);
        json.end_object();
      }
      json.end_object();
    }
    json.end_array();
    json.end_object();
    return write_file(path, json.str());
  }

 private:
  void keep(Span span) {
    if (spans_.size() < kMaxSpans) {
      spans_.push_back(std::move(span));
    } else {
      ++dropped_;
    }
  }

  Clock::time_point origin_;
  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::size_t dropped_ = 0;
};

void record(Tracer* tracer, std::string name, const char* category,
            Clock::time_point begin, std::string detail = {}) {
  if (tracer != nullptr) {
    tracer->record(std::move(name), category, begin, std::move(detail));
  }
}

// ---- the stage-timing predictor wrapper ------------------------------------

/// Predictor-call time per pipeline stage, merged from every TimedPredictor
/// when it is destroyed. Index 0/1/2 = featurize/refit/predict (the Flag
/// stage makes no predictor call).
struct StageLedger {
  std::mutex mutex;
  std::array<double, 3> seconds{};
  std::array<std::size_t, 3> calls{};
  std::vector<double> refit_seconds;  ///< every refit call, for the tail
};

/// Delegating predictor that times the three predictor calls the serving
/// pipeline makes per checkpoint. One instance serves one job and is driven
/// by one thread at a time (predictor.h), so it accumulates without locks
/// and merges into the shared ledger once, when the fleet destroys it.
class TimedPredictor final : public core::StragglerPredictor {
 public:
  TimedPredictor(std::unique_ptr<core::StragglerPredictor> inner,
                 StageLedger* ledger, Tracer* tracer)
      : inner_(std::move(inner)), ledger_(ledger), tracer_(tracer) {}

  ~TimedPredictor() override {
    {
      std::lock_guard<std::mutex> lock(ledger_->mutex);
      for (std::size_t i = 0; i < seconds_.size(); ++i) {
        ledger_->seconds[i] += seconds_[i];
        ledger_->calls[i] += calls_[i];
      }
      ledger_->refit_seconds.insert(ledger_->refit_seconds.end(),
                                    refit_.begin(), refit_.end());
    }
    if (tracer_ != nullptr) tracer_->add(std::move(spans_));
  }
  TimedPredictor(const TimedPredictor&) = delete;
  TimedPredictor& operator=(const TimedPredictor&) = delete;

  std::string name() const override { return inner_->name(); }
  core::Privilege privilege() const override { return inner_->privilege(); }
  void initialize(const core::JobContext& context) override {
    job_ = std::string(context.job_id);
    inner_->initialize(context);
  }
  bool staged() const override { return inner_->staged(); }

  void featurize_checkpoint(const trace::CheckpointView& view) override {
    timed(0, view.index(), [&] { inner_->featurize_checkpoint(view); });
  }
  void refit_checkpoint(const trace::CheckpointView& view,
                        std::span<const std::size_t> candidates) override {
    timed(1, view.index(),
          [&] { inner_->refit_checkpoint(view, candidates); });
  }
  std::vector<std::size_t> predict_stragglers(
      const trace::CheckpointView& view,
      std::span<const std::size_t> candidates) override {
    std::vector<std::size_t> flagged;
    timed(2, view.index(),
          [&] { flagged = inner_->predict_stragglers(view, candidates); });
    return flagged;
  }

 private:
  template <typename Body>
  void timed(std::size_t stage, std::size_t checkpoint, Body&& body) {
    static constexpr std::array<const char*, 3> kNames = {"featurize", "refit",
                                                          "predict"};
    const auto begin = Clock::now();
    body();
    const auto end = Clock::now();
    const double s = seconds_between(begin, end);
    seconds_[stage] += s;
    ++calls_[stage];
    if (stage == 1) refit_.push_back(s);
    if (tracer_ != nullptr) {
      spans_.push_back(tracer_->make(kNames[stage], "stage", begin, end,
                                     job_ + " ckpt " +
                                         std::to_string(checkpoint)));
    }
  }

  std::unique_ptr<core::StragglerPredictor> inner_;
  StageLedger* ledger_;
  Tracer* tracer_;  ///< null: this session records no spans
  std::string job_;
  std::array<double, 3> seconds_{};
  std::array<std::size_t, 3> calls_{};
  std::vector<double> refit_;
  std::vector<Span> spans_;
};

/// `inner` with every predictor wrapped in a TimedPredictor. The ledger
/// times every call, but spans are kept only for every 8th of the first
/// 2048 sessions: a span per stage call of every job would swamp the file.
core::NamedPredictor timed_method(const core::NamedPredictor& inner,
                                  StageLedger* ledger, Tracer* tracer) {
  auto made = std::make_shared<std::atomic<std::size_t>>(0);
  return {inner.name,
          [inner, ledger, tracer,
           made]() -> std::unique_ptr<core::StragglerPredictor> {
            const std::size_t k = made->fetch_add(1);
            const bool spans =
                tracer != nullptr && k < 2048 && k % kCheckStride == 0;
            return std::make_unique<TimedPredictor>(
                inner.make(), ledger, spans ? tracer : nullptr);
          }};
}

// ---- workloads -------------------------------------------------------------

enum class Family { kGoogle, kAlibaba };

/// One benchmark workload. The README gives the reason for each choice.
struct Workload {
  const char* name;
  /// The timed phase replicates the cluster simulation over flags the fleet
  /// produced in setup, instead of serving.
  bool sim;
  const char* method;  ///< Table-3 method the fleet serves
  Family family;
  core::RefitPolicy refit;
  std::size_t jobs;     ///< generated job set, served whole by every pass
  std::size_t shards;
  std::size_t workers;  ///< stage workers per shard
  /// Poisson arrivals, four tenants with a GCRA quota on the batch tenant,
  /// and a mid-horizon drain of shard 3. Otherwise: batch arrivals, one
  /// unmetered tenant, no drain.
  bool tenants;
  std::size_t replay_jobs;   ///< jobs of the NURD component replay
  std::size_t quality_jobs;  ///< jobs of the quality set (kQualitySeed)
};

constexpr auto kInc = core::RefitPolicy::kIncremental;
constexpr auto kFull = core::RefitPolicy::kFull;

const std::array<Workload, 4> kWorkloads = {{
    {"nurd-google-inc", false, "NURD", Family::kGoogle, kInc, 512, 1, 4, false,
     16, 128},
    {"nurd-alibaba-full", false, "NURD", Family::kAlibaba, kFull, 1024, 1, 4,
     false, 64, 256},
    {"fleet-hbos", false, "HBOS", Family::kGoogle, kInc, 2048, 4, 1, true, 16,
     512},
    {"sim-chaos", true, "HBOS", Family::kGoogle, kInc, 2048, 1, 4, false, 16,
     512},
}};

const Workload& workload_by_name(const std::string& name) {
  std::string known;
  for (const Workload& w : kWorkloads) {
    if (name == w.name) return w;
    known += known.empty() ? "" : ", ";
    known += w.name;
  }
  throw std::invalid_argument("unknown --workload='" + name +
                              "'; workloads: " + known);
}

core::RegistryConfig tuned(Family family, core::RefitPolicy refit) {
  auto config = family == Family::kGoogle ? core::google_tuned()
                                          : core::alibaba_tuned();
  config.refit = refit;
  return config;
}

const scenario::ScenarioSpec& scenario_of(const Workload& w) {
  return scenario::scenario_by_name(w.sim ? "chaos" : "baseline");
}

std::vector<trace::Job> generate_jobs(const Workload& w, std::size_t count,
                                     std::uint64_t seed) {
  return scenario::make_jobs(scenario_of(w),
                             w.family == Family::kGoogle
                                 ? scenario::TraceFamily::kGoogle
                                 : scenario::TraceFamily::kAlibaba,
                             count, seed, kThreads);
}

/// The fleet configuration for serving `jobs` — a pure function of the jobs
/// and the seed, computed in the plan plane before any worker exists.
serve::ShardedMonitorConfig fleet_config(const Workload& w,
                                         std::span<const trace::Job> jobs,
                                         std::uint64_t seed) {
  serve::ShardedMonitorConfig config;
  config.shards = w.shards;
  config.threads = w.workers;
  config.refit = w.refit;
  config.arrival_seed = seed;
  config.placement_seed = seed;
  if (!w.tenants) return config;

  // Poisson arrivals spread over about two mean job completion times.
  Rng rng(seed);
  const double rate = static_cast<double>(jobs.size()) /
                      (2.0 * scenario::mean_completion(jobs));
  auto arrivals = sched::poisson_arrivals(rate)(jobs.size(), rng);
  double horizon = 0.0;
  std::size_t batch_events = 0;
  config.tenant_of.resize(jobs.size());
  for (std::size_t j = 0; j < jobs.size(); ++j) {
    config.tenant_of[j] = j % 4;
    const std::size_t last = jobs[j].checkpoint_count() - 1;
    horizon = std::max(horizon, arrivals[j] + jobs[j].trace.tau_run(last));
    if (j % 4 == 3) batch_events += jobs[j].checkpoint_count();
  }
  // The batch tenant may admit half of what it offers: its events defer
  // behind its own budget while the other tenants admit on arrival.
  config.tenants = {
      {.name = "a"},
      {.name = "b"},
      {.name = "c"},
      {.name = "batch",
       .qos = serve::QoS::kBatch,
       .quota_rate = 0.5 * static_cast<double>(batch_events) / horizon},
  };
  config.drains = {{.time = horizon / 2.0, .shard = 3}};
  config.arrivals = sched::fixed_arrivals(std::move(arrivals));
  return config;
}

// ---- serving ---------------------------------------------------------------

bool same_decisions(const eval::JobRunResult& a, const eval::JobRunResult& b) {
  return a.flagged_at == b.flagged_at && a.final.tp == b.final.tp &&
         a.final.fp == b.final.fp && a.final.fn == b.final.fn &&
         a.final.tn == b.final.tn;
}

/// The first served record of every job. A later pass over the same job
/// must make the same decisions (the fleet is deterministic).
struct Reference {
  std::vector<std::optional<eval::JobRunResult>> runs;
  std::size_t mismatches = 0;

  void record(std::span<const eval::JobRunResult> got) {
    for (std::size_t i = 0; i < got.size(); ++i) {
      auto& slot = runs[i];
      if (!slot) {
        slot = got[i];
      } else if (!same_decisions(*slot, got[i])) {
        ++mismatches;
      }
    }
  }
};

/// Fleet runs summed over the passes of one phase.
struct FleetTotals {
  std::size_t passes = 0;
  std::size_t events = 0;    ///< checkpoint events retired
  std::size_t expected = 0;  ///< checkpoint events planned
  double run_s = 0.0;        ///< wall time inside ShardedMonitor::run()
  std::size_t lanes = 0;
  std::array<double, core::kStageCount> busy_s{};
  std::size_t peak_backlog = 0;
  std::size_t deferred = 0;
  std::size_t handoffs = 0;
  AllocTotals allocs;  ///< from plan build to the end of run()
  // Per pass. The end-to-end figures are medians over passes, so one pass
  // slowed by a noisy neighbour on a shared host moves them little.
  std::vector<double> events_per_s, p50_ms, p99_ms, shard_p99_ms, plan_ms;
};

/// Serves the leading jobs `part` of the job set once.
void run_fleet(const Workload& w, std::span<const trace::Job> part,
               const core::NamedPredictor& method,
               std::uint64_t seed, FleetTotals* totals, Reference* reference,
               Tracer* tracer) {
  const AllocTotals allocs = alloc_totals();
  const auto built = Clock::now();
  serve::ShardedMonitor fleet(part, method, fleet_config(w, part, seed));
  const auto ran = Clock::now();
  const serve::FleetResult result = fleet.run();
  const auto done = Clock::now();
  const AllocTotals allocs_after = alloc_totals();
  totals->allocs.count += allocs_after.count - allocs.count;
  totals->allocs.bytes += allocs_after.bytes - allocs.bytes;
  if (tracer != nullptr) {
    const std::string detail = std::to_string(part.size()) + " jobs";
    tracer->add(tracer->make("plan build", "plan", built, ran, detail));
    tracer->add(tracer->make("fleet run", "exec", ran, done, detail));
  }

  ++totals->passes;
  totals->events += result.totals.checkpoints;
  for (const trace::Job& job : part) totals->expected += job.checkpoint_count();
  totals->run_s += seconds_between(ran, done);
  totals->lanes = result.totals.lanes;
  for (std::size_t i = 0; i < core::kStageCount; ++i) {
    totals->busy_s[i] += result.totals.stage_seconds[i];
  }
  totals->peak_backlog =
      std::max(totals->peak_backlog, result.totals.peak_backlog);
  totals->deferred += fleet.plan().deferred_events;
  totals->handoffs += result.handoffs;
  totals->events_per_s.push_back(
      ratio(static_cast<double>(result.totals.checkpoints),
            seconds_between(ran, done)));
  totals->p50_ms.push_back(result.totals.p50_latency_ms);
  totals->p99_ms.push_back(result.totals.p99_latency_ms);
  double shard_p99 = 0.0;
  for (const serve::ShardStats& s : result.shards) {
    shard_p99 = std::max(shard_p99, s.p99_latency_ms);
  }
  totals->shard_p99_ms.push_back(shard_p99);
  totals->plan_ms.push_back(1e3 * seconds_between(built, ran));
  if (reference != nullptr) reference->record(result.runs);
}

/// Fleet passes over the whole job set, at least one, and another only
/// while it is expected to end within half a pass of `seconds`. Closed loop:
/// the engine admits the next event whenever its in-flight window frees.
/// With `traced` set, each round serves the job set twice, by `method` into
/// `plain` and then by `traced` into `wrapped`, so both sides see the same
/// drift of the machine and the heap.
void serve_passes(const Workload& w, std::span<const trace::Job> jobs,
                  const core::NamedPredictor& method,
                  const core::NamedPredictor* traced, std::uint64_t seed,
                  double seconds, FleetTotals* plain, FleetTotals* wrapped,
                  Reference* reference, Tracer* tracer) {
  const auto start = Clock::now();
  for (double rounds = 0;
       rounds == 0 || (rounds + 0.5) * seconds_since(start) / rounds < seconds;
       ++rounds) {
    run_fleet(w, jobs, method, seed, plain, reference, nullptr);
    if (traced != nullptr) {
      run_fleet(w, jobs, *traced, seed, wrapped, reference, tracer);
    }
  }
}

/// Re-runs every 8th served job through a fresh eval::run_job and counts the
/// jobs whose decisions differ from the served record.
std::size_t check_against_harness(std::span<const trace::Job> jobs,
                                  const core::NamedPredictor& method,
                                  const Reference& reference,
                                  std::size_t* checked) {
  std::vector<std::size_t> picked;
  for (std::size_t j = 0; j < jobs.size(); j += kCheckStride) {
    if (reference.runs[j]) picked.push_back(j);
  }
  std::vector<std::uint8_t> differs(picked.size(), 0);
  ThreadPool::run_indexed(picked.size(), kThreads, [&](std::size_t i) {
    const std::size_t j = picked[i];
    auto predictor = method.make();
    differs[i] = !same_decisions(eval::run_job(jobs[j], *predictor),
                                 *reference.runs[j]);
  });
  *checked = picked.size();
  return static_cast<std::size_t>(
      std::count(differs.begin(), differs.end(), 1));
}

/// FNV-1a over every recorded flag (job, task, checkpoint), in job order.
std::uint64_t flag_digest(const Reference& reference) {
  std::uint64_t h = 1469598103934665603ULL;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xffU;
      h *= 1099511628211ULL;
    }
  };
  for (std::size_t j = 0; j < reference.runs.size(); ++j) {
    if (!reference.runs[j]) continue;
    const auto& flagged = reference.runs[j]->flagged_at;
    for (std::size_t task = 0; task < flagged.size(); ++task) {
      if (flagged[task] == eval::kNeverFlagged) continue;
      mix(j);
      mix(task);
      mix(flagged[task]);
    }
  }
  return h;
}

double macro_f1(const char* method, const Reference& reference) {
  std::vector<eval::JobRunResult> runs;
  for (const auto& r : reference.runs) {
    if (r) runs.push_back(*r);
  }
  return eval::aggregate_method(method, runs).f1;
}

struct Outcome {
  std::vector<Metric> metrics;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  bool correct = true;
};

/// The untimed pass before every timed phase: the workload's fleet serves
/// the quality set, every 8th job is checked against eval::run_job, and the
/// served decisions give macro_f1. On the serve workloads it is also the
/// warm-up that fills caches and finishes lazy set-up.
double quality_pass(const Workload& w, const core::NamedPredictor& method,
                    Outcome* o) {
  const std::vector<trace::Job> jobs =
      generate_jobs(w, w.quality_jobs, kQualitySeed);
  Reference reference;
  reference.runs.resize(jobs.size());
  FleetTotals totals;
  run_fleet(w, jobs, method, kQualitySeed, &totals, &reference, nullptr);
  std::size_t checked = 0;
  const std::size_t mismatches =
      check_against_harness(jobs, method, reference, &checked);
  o->attempted += totals.expected + checked;
  o->failed += totals.expected - totals.events + mismatches;
  std::printf("quality set: %zu jobs, %zu checked against eval::run_job, "
              "%zu mismatches, flag_digest %016llx\n",
              jobs.size(), checked, mismatches,
              static_cast<unsigned long long>(flag_digest(reference)));
  return macro_f1(w.method, reference);
}

// ---- set-up ----------------------------------------------------------------

/// Everything a workload builds before its timed phase: the job set, one
/// plan build and, for sim-chaos, the flags the cluster replays.
struct Setup {
  std::vector<trace::Job> jobs;
  double generate_s = 0.0;
  double total_s = 0.0;
  double plan_ms = 0.0;
  // sim-chaos: the HBOS fleet run that produced the flags, its per-job
  // records, and the chaos scenario's cluster materialized for this job set.
  FleetTotals precompute;
  Reference flags;
  std::vector<eval::JobRunResult> runs;
  sched::ClusterConfig cluster;
};

Setup set_up(const Workload& w, const core::NamedPredictor& method,
             std::uint64_t seed, Tracer* tracer) {
  Setup s;
  const auto start = Clock::now();
  s.jobs = generate_jobs(w, w.jobs, seed);
  s.generate_s = seconds_since(start);
  record(tracer, "generate", "trace", start,
         std::to_string(s.jobs.size()) + " jobs");
  if (!w.sim) {
    const auto built = Clock::now();
    const serve::ShardedMonitor fleet(s.jobs, method,
                                      fleet_config(w, s.jobs, seed));
    s.plan_ms = 1e3 * seconds_since(built);
    record(tracer, "plan build", "plan", built);
  } else {
    s.flags.runs.resize(s.jobs.size());
    run_fleet(w, s.jobs, method, seed, &s.precompute, &s.flags, tracer);
    s.plan_ms = s.precompute.plan_ms.front();
    s.runs.reserve(s.jobs.size());
    for (const auto& r : s.flags.runs) s.runs.push_back(*r);
    s.cluster = scenario::make_cluster_config(
        scenario_of(w), s.jobs.size(), scenario::mean_completion(s.jobs));
  }
  s.total_s = seconds_since(start);
  return s;
}

// ---- cluster simulation ----------------------------------------------------

/// `replications` replications of the chaos cluster on `threads` lanes. The
/// library forks replication r's stream from (seed, r) alone, so replication
/// 0 is the same at any count and on any number of lanes.
std::vector<sched::ClusterResult> replicate(const Setup& s, std::uint64_t seed,
                                            std::size_t replications,
                                            std::size_t threads) {
  return sched::simulate_cluster_replicated(
      s.jobs, s.runs, s.cluster, replications,
      (seed + 1) * 0x9E3779B97F4A7C15ULL, threads);
}

bool bits_equal(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_result(const sched::ClusterResult& a, const sched::ClusterResult& b) {
  if (a.jobs.size() != b.jobs.size() || !bits_equal(a.makespan, b.makespan) ||
      a.relaunched != b.relaunched || a.waited != b.waited ||
      a.noop_flags != b.noop_flags || a.preempted != b.preempted ||
      a.machine_failures != b.machine_failures || a.stranded != b.stranded ||
      a.peak_waiting != b.peak_waiting || a.events != b.events) {
    return false;
  }
  for (std::size_t j = 0; j < a.jobs.size(); ++j) {
    const auto& x = a.jobs[j];
    const auto& y = b.jobs[j];
    if (!bits_equal(x.arrival, y.arrival) ||
        !bits_equal(x.completion, y.completion) ||
        !bits_equal(x.original_jct, y.original_jct) ||
        !bits_equal(x.mitigated_jct, y.mitigated_jct) ||
        x.relaunched != y.relaunched || x.waited != y.waited ||
        x.noop_flags != y.noop_flags || x.preempted != y.preempted) {
      return false;
    }
  }
  return true;
}

/// Mean per-job JCT reduction over the jobs that completed: a job left with
/// a stranded task never completes, so it has no JCT to reduce.
double completed_reduction_pct(const sched::ClusterResult& r) {
  double sum = 0.0;
  std::size_t completed = 0;
  for (const sched::ClusterJobStats& job : r.jobs) {
    if (!std::isfinite(job.mitigated_jct)) continue;
    sum += job.reduction_pct();
    ++completed;
  }
  return ratio(sum, static_cast<double>(completed));
}

struct SimTotals {
  std::size_t calls = 0;
  std::size_t events = 0;
  std::vector<double> call_ms;
  std::vector<double> events_per_s;  ///< per call: its events over its wall
  std::size_t mismatches = 0;  ///< calls whose results differ from the first
  std::vector<sched::ClusterResult> first;  ///< the first call's results
};

/// Calls of kReplications replications on kThreads lanes, at least one, and
/// another only while it is expected to end within half a call of
/// `seconds`. Every call has the same seed, so each must return exactly
/// what the first did.
SimTotals simulate_calls(const Setup& s, std::uint64_t seed, double seconds,
                         Tracer* tracer) {
  SimTotals totals;
  const auto start = Clock::now();
  for (double calls = 0;
       calls == 0 || (calls + 0.5) * seconds_since(start) / calls < seconds;
       ++calls) {
    const auto begin = Clock::now();
    std::vector<sched::ClusterResult> results =
        replicate(s, seed, kReplications, kThreads);
    const auto end = Clock::now();
    if (tracer != nullptr) {
      tracer->add(tracer->make("replicated call", "cluster", begin, end,
                               std::to_string(kReplications) + " reps"));
    }
    std::size_t events = 0;
    for (const sched::ClusterResult& r : results) events += r.events;
    ++totals.calls;
    totals.events += events;
    totals.call_ms.push_back(1e3 * seconds_between(begin, end));
    totals.events_per_s.push_back(
        ratio(static_cast<double>(events), seconds_between(begin, end)));
    if (totals.first.empty()) {
      totals.first = std::move(results);
    } else if (!std::equal(results.begin(), results.end(),
                           totals.first.begin(), totals.first.end(),
                           same_result)) {
      ++totals.mismatches;
    }
  }
  return totals;
}

// ---- NURD component replay and probes ----------------------------------------

/// NURD's model settings exactly as core::nurd_predictors derives them from
/// a registry config; replay.residual_frac shows if the two drift apart.
ml::GbtParams nurd_gbt(const core::RegistryConfig& c) {
  ml::GbtParams p;
  p.n_rounds = c.nurd_gbt_rounds;
  p.tree.max_depth = c.nurd_tree_depth;
  p.warm_rate_factor = c.gbt_warm_rate;
  return p;
}

ml::LogisticParams nurd_propensity(const core::RegistryConfig& c) {
  ml::LogisticParams p;
  p.l2 = c.nurd_propensity_l2;
  return p;
}

/// True when NURD's refit guard lets checkpoint `view` refit: something has
/// finished and some running task was not flagged before it.
bool refits_at(const trace::CheckpointView& view,
               const eval::JobRunResult& run) {
  if (view.finished().empty()) return false;
  for (const std::size_t task : view.running()) {
    const std::size_t at = run.flagged_at[task];
    if (at == eval::kNeverFlagged || at >= view.index()) return true;
  }
  return false;
}

struct Replay {
  double real_s = 0.0;  ///< featurize + refit predictor calls, real run
  double assemble_s = 0.0;
  double gbt_s = 0.0;
  double logistic_s = 0.0;
  std::size_t refits = 0;
  std::size_t fits = 0;
  std::size_t continues = 0;
  std::size_t logistic_fits = 0;
  std::vector<double> fit_probe_ms;
  std::vector<double> continue_probe_ms;
  std::vector<double> late_rows;  ///< finished rows at the last checkpoint
  std::vector<double> tasks;
};

/// Serial NURD over the first jobs of the set, twice per job: the real
/// predictor through eval::run_job (its featurize + refit calls timed), then
/// the same refit sequence rebuilt from its components — FitSession
/// assembly, refit_finished_gbt, the propensity LogisticRegression — each
/// timed. Then the late-shape GBT probes: one from-scratch fit at the
/// checkpoint where warm refreshes stop, one continuation to the last.
Replay replay_components(std::span<const trace::Job> jobs,
                         const core::RegistryConfig& config, Tracer* tracer) {
  Replay out;
  const auto nurd = core::predictor_by_name("NURD", config);
  const ml::GbtParams gbt = nurd_gbt(config);
  const ml::LogisticParams propensity = nurd_propensity(config);
  for (const trace::Job& job : jobs) {
    StageLedger ledger;
    eval::JobRunResult run;
    const auto real_begin = Clock::now();
    {
      TimedPredictor predictor(nurd.make(), &ledger, nullptr);
      run = eval::run_job(job, predictor);
    }
    out.real_s += ledger.seconds[0] + ledger.seconds[1];
    record(tracer, "real run", "replay", real_begin, job.id);

    core::FitSession session(config.refit);
    core::GbtRefitState ht;
    std::optional<ml::LogisticRegression> gt;
    for (std::size_t t = 0; t < job.checkpoint_count(); ++t) {
      const trace::CheckpointView view = job.checkpoint(t);
      if (!refits_at(view, run)) continue;
      const auto t0 = Clock::now();
      session.observe(view);
      session.x_fin();
      if (!view.running().empty()) session.x_member();
      const auto t1 = Clock::now();
      const bool had = ht.model.has_value();
      const std::size_t full_before = had ? ht.model->full_fit_rows() : 0;
      const std::size_t trained_before = had ? ht.model->trained_rows() : 0;
      core::refit_finished_gbt(session, gbt, &ht);
      const auto t2 = Clock::now();
      if (!view.running().empty()) {
        if (!session.incremental() || !gt.has_value()) {
          auto p = propensity;
          p.warm_start = session.incremental();
          gt.emplace(p);
        }
        gt->fit(session.x_member(), session.y_member());
        ++out.logistic_fits;
      } else {
        gt.reset();
      }
      const auto t3 = Clock::now();

      ++out.refits;
      if (!session.incremental() || !had ||
          ht.model->full_fit_rows() != full_before) {
        ++out.fits;
      } else if (ht.model->trained_rows() != trained_before) {
        ++out.continues;
      }
      out.assemble_s += seconds_between(t0, t1);
      out.gbt_s += seconds_between(t1, t2);
      out.logistic_s += seconds_between(t2, t3);
      if (tracer != nullptr) {
        const std::string detail = job.id + " ckpt " + std::to_string(t);
        tracer->add(tracer->make("assemble", "fitsession", t0, t1, detail));
        tracer->add(tracer->make("gbt refit", "gbt", t1, t2, detail));
        tracer->add(tracer->make("logistic fit", "logistic", t2, t3, detail));
      }
    }

    // Late-shape probes: the first checkpoint past warm_refresh_due's 70%
    // grid cutoff, and the last checkpoint.
    const std::size_t last = job.checkpoint_count() - 1;
    const std::size_t late = (7 * job.checkpoint_count() + 9) / 10;
    const trace::CheckpointView late_view = job.checkpoint(late);
    const trace::CheckpointView last_view = job.checkpoint(last);
    out.late_rows.push_back(static_cast<double>(last_view.finished().size()));
    out.tasks.push_back(static_cast<double>(job.task_count()));
    if (late >= last || late_view.finished().empty() ||
        last_view.finished().size() <= late_view.finished().size()) {
      continue;
    }
    core::FitSession probe(core::RefitPolicy::kIncremental);
    core::GbtRefitState state;
    probe.observe(late_view);
    probe.x_fin();
    const auto p0 = Clock::now();
    core::refit_finished_gbt(probe, gbt, &state);
    const auto p1 = Clock::now();
    const std::size_t full_rows = state.model->full_fit_rows();
    probe.observe(last_view);
    probe.x_fin();
    const auto p2 = Clock::now();
    core::refit_finished_gbt(probe, gbt, &state);
    const auto p3 = Clock::now();
    out.fit_probe_ms.push_back(1e3 * seconds_between(p0, p1));
    if (state.model->full_fit_rows() == full_rows) {
      out.continue_probe_ms.push_back(1e3 * seconds_between(p2, p3));
    }
  }
  return out;
}

struct KernelProbe {
  double hist_ns_per_row = 0.0;
  double hist_gbps = 0.0;
  double subtract_ns_per_bin = 0.0;
  double sigmoid_ns_per_elem = 0.0;
};

/// Times the active backend's histogram and sigmoid primitives at one call
/// shape: `rows` rows into a max_bins-wide histogram, `elems` sigmoids.
/// Each figure is the median of five timed batches.
KernelProbe probe_kernels(std::size_t rows, std::size_t elems,
                          std::uint64_t seed) {
  const kernel::KernelOps& ops = kernel::ops();
  const std::size_t bins = static_cast<std::size_t>(ml::TreeParams{}.max_bins);
  const std::size_t hist_doubles = bins * kernel::kHistBinStride;
  rows = std::max<std::size_t>(rows, 1);
  elems = std::max<std::size_t>(elems, 1);
  Rng rng(seed);
  std::vector<std::uint16_t> bin_of_row(rows);
  std::vector<std::size_t> row_ids(rows);
  std::vector<double> grad(rows), hess(rows);
  for (std::size_t r = 0; r < rows; ++r) {
    bin_of_row[r] = static_cast<std::uint16_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(bins) - 1));
    row_ids[r] = r;
    grad[r] = rng.normal();
    hess[r] = rng.uniform(0.5, 1.5);
  }
  std::vector<double> parent(hist_doubles, 0.0), child(hist_doubles, 0.0);
  std::vector<double> z(elems), out(elems);
  for (double& v : z) v = rng.normal(0.0, 3.0);

  double sink = 0.0;
  const auto batches = [](auto&& body) {
    std::vector<double> s;
    for (int b = 0; b < 5; ++b) {
      const auto begin = Clock::now();
      body();
      s.push_back(seconds_since(begin));
    }
    return median(std::move(s));
  };
  const std::size_t hist_calls = std::max<std::size_t>(1, 2000000 / rows);
  const double hist_s = batches([&] {
    for (std::size_t c = 0; c < hist_calls; ++c) {
      ops.hist_accumulate(child.data(), bin_of_row.data(), row_ids.data(),
                          rows, grad.data(), hess.data());
    }
    sink += child[0];
  });
  const std::size_t subtract_calls = 20000;
  const double subtract_s = batches([&] {
    for (std::size_t c = 0; c < subtract_calls; ++c) {
      ops.hist_subtract(parent.data(), child.data(), hist_doubles);
    }
    sink += parent[0];
  });
  const std::size_t sigmoid_calls = std::max<std::size_t>(1, 2000000 / elems);
  const double sigmoid_s = batches([&] {
    for (std::size_t c = 0; c < sigmoid_calls; ++c) {
      ops.sigmoid(z.data(), out.data(), elems);
      sink += out[c % elems];
    }
  });
  volatile double keep = sink;
  (void)keep;

  // Bytes per accumulated row, from the call shape: its u16 bin code, its
  // row index, its gradient and Hessian, and a read-modify-write of the
  // bin's three used lanes.
  constexpr double kHistBytesPerRow = 2 + 8 + 8 + 8 + 2 * 3 * 8;
  const double rows_done = static_cast<double>(hist_calls * rows);
  KernelProbe p;
  p.hist_ns_per_row = 1e9 * hist_s / rows_done;
  p.hist_gbps = kHistBytesPerRow * rows_done / hist_s / 1e9;
  p.subtract_ns_per_bin =
      1e9 * subtract_s / static_cast<double>(subtract_calls * bins);
  p.sigmoid_ns_per_elem =
      1e9 * sigmoid_s / static_cast<double>(sigmoid_calls * elems);
  return p;
}

// ---- the run ---------------------------------------------------------------

/// What a workload's timed phase measured.
struct Timed {
  double events_per_s = 0.0;
  double traced_events_per_s = 0.0;  ///< traced runs: the wrapped side
  double p50_ms = 0.0;
  double p99_ms = 0.0;
  AllocTotals allocs;
  std::size_t ops = 0;  ///< checkpoint or simulator events
  FleetTotals plain;    ///< serve workloads: the fleet runs
  FleetTotals wrapped;  ///< traced serve runs: the wrapped fleet runs
  std::vector<Metric> cluster;  ///< the cluster.* per-layer metrics
};

/// Serve workloads: whole-set passes for `seconds` (alternating with wrapped
/// passes when traced), every pass's decisions checked against the first
/// and every 8th job's against eval::run_job.
Timed time_serving(const Workload& w, const Setup& s,
                   const core::NamedPredictor& method,
                   const core::NamedPredictor& timed, std::uint64_t seed,
                   double seconds, Tracer* tracer, Reference* reference,
                   Outcome* o) {
  const std::span<const trace::Job> jobs(s.jobs);
  Timed t;
  reference->runs.resize(jobs.size());
  const auto phase = Clock::now();
  serve_passes(w, jobs, method, tracer != nullptr ? &timed : nullptr, seed,
               seconds, &t.plain, &t.wrapped, reference, tracer);
  record(tracer, "timed phase", "exec", phase);
  t.allocs = t.plain.allocs;
  t.ops = t.plain.events;
  t.events_per_s = median(t.plain.events_per_s);
  t.traced_events_per_s = median(t.wrapped.events_per_s);
  t.p50_ms = median(t.plain.p50_ms);
  t.p99_ms = median(t.plain.p99_ms);
  for (const char* name :
       {"cluster.events", "cluster.machine_failures", "cluster.preempted",
        "cluster.peak_waiting", "cluster.stranded"}) {
    t.cluster.push_back({name, 0.0, "count"});
  }
  t.cluster.push_back({"cluster.jct_reduction_pct", 0.0, "%"});

  std::size_t checked = 0;
  const std::size_t mismatches =
      reference->mismatches +
      check_against_harness(jobs, method, *reference, &checked);
  o->attempted += t.plain.expected + t.wrapped.expected + checked;
  o->failed += t.plain.expected - t.plain.events;
  o->failed += t.wrapped.expected - t.wrapped.events;
  o->failed += mismatches;
  std::printf("checked %zu jobs against eval::run_job, %zu mismatches\n",
              checked, mismatches);
  return t;
}

/// sim-chaos: simulate_cluster_replicated calls for `seconds` (half plain,
/// half with spans when traced). Replication 0 run alone on this thread
/// first is both the warm-up and the reference the timed calls' replication
/// 0, run on kThreads lanes, must equal bit for bit; the fleet-made flags
/// are checked against eval::run_job like a serve run.
Timed time_simulation(Setup& s, const core::NamedPredictor& method,
                      std::uint64_t seed, double seconds, Tracer* tracer,
                      Reference* reference, Outcome* o) {
  const sched::ClusterResult alone =
      std::move(replicate(s, seed, 1, 1).front());
  const double phase_s = tracer != nullptr ? seconds / 2.0 : seconds;
  const AllocTotals before = alloc_totals();
  const auto phase = Clock::now();
  const SimTotals sim = simulate_calls(s, seed, phase_s, nullptr);
  record(tracer, "timed phase", "cluster", phase);
  const AllocTotals after = alloc_totals();
  Timed t;
  t.allocs = {after.count - before.count, after.bytes - before.bytes};
  t.ops = sim.events;
  t.events_per_s = median(sim.events_per_s);
  t.p50_ms = median(sim.call_ms);
  t.p99_ms = percentile(sim.call_ms, 0.99);
  std::size_t calls = sim.calls;
  std::size_t mismatches = sim.mismatches;
  if (tracer != nullptr) {
    const SimTotals traced = simulate_calls(s, seed, phase_s, tracer);
    t.traced_events_per_s = median(traced.events_per_s);
    calls += traced.calls;
    mismatches += traced.mismatches +
                  !std::equal(traced.first.begin(), traced.first.end(),
                              sim.first.begin(), sim.first.end(), same_result);
  }
  double failures = 0.0, preempted = 0.0, peak_waiting = 0.0, stranded = 0.0,
         reduction = 0.0;
  for (const sched::ClusterResult& r : sim.first) {
    failures += static_cast<double>(r.machine_failures);
    preempted += static_cast<double>(r.preempted);
    peak_waiting += static_cast<double>(r.peak_waiting);
    stranded += static_cast<double>(r.stranded);
    reduction += completed_reduction_pct(r);
  }
  const double reps = static_cast<double>(sim.first.size());
  t.cluster = {
      {"cluster.events", static_cast<double>(sim.events) /
                             static_cast<double>(sim.calls) / reps, "count"},
      {"cluster.machine_failures", failures / reps, "count"},
      {"cluster.preempted", preempted / reps, "count"},
      {"cluster.peak_waiting", peak_waiting / reps, "count"},
      {"cluster.stranded", stranded / reps, "count"},
      {"cluster.jct_reduction_pct", reduction / reps, "%"},
  };
  std::printf("calls %zu of %zu replications, events %zu, stranded tasks "
              "%.0f per call\n",
              sim.calls, kReplications, sim.events, stranded);

  *reference = std::move(s.flags);
  std::size_t checked = 0;
  mismatches += check_against_harness(s.jobs, method, *reference, &checked);
  if (!same_result(sim.first.front(), alone)) ++mismatches;
  o->attempted += calls + 1 + checked;
  o->failed += mismatches;
  std::printf("checked %zu calls, replication 0 and %zu jobs against "
              "eval::run_job, %zu mismatches\n",
              calls, checked, mismatches);
  return t;
}

/// The per-layer metrics of a traced run. `exec` is the fleet whose engine
/// stats describe the execute plane (sim-chaos: its flag-producing run) and
/// `wrapped` the one the ledger's predictor calls came from.
std::vector<Metric> layer_metrics(const Workload& w, const Setup& s,
                                  const Timed& t, const StageLedger& ledger,
                                  std::uint64_t seed, Tracer* tracer) {
  static constexpr std::array<const char*, core::kStageCount> kStages = {
      "featurize", "refit", "predict", "flag"};
  const FleetTotals& exec = w.sim ? s.precompute : t.plain;
  const FleetTotals& wrapped = w.sim ? s.precompute : t.wrapped;
  const auto per_call = [&](std::size_t stage) {
    return ratio(ledger.seconds[stage],
                 static_cast<double>(ledger.calls[stage]));
  };
  const auto per_pass = [&](std::size_t count) {
    return ratio(static_cast<double>(count),
                 static_cast<double>(exec.passes));
  };
  std::vector<double> plan_ms = exec.plan_ms;
  plan_ms.push_back(s.plan_ms);
  double busy = 0.0;
  for (const double b : exec.busy_s) busy += b;
  const double engine = wrapped.busy_s[0] + wrapped.busy_s[1] + wrapped.busy_s[2];
  const double calls = ledger.seconds[0] + ledger.seconds[1] + ledger.seconds[2];

  std::vector<Metric> m = {
      {"trace.generate_s", s.generate_s, "s"},
      {"plan.build_ms", median(plan_ms), "ms"},
      {"plan.deferred_events", per_pass(exec.deferred), "count"},
      {"plan.handoffs", per_pass(exec.handoffs), "count"},
  };
  for (std::size_t i = 0; i < core::kStageCount; ++i) {
    m.push_back({std::string("exec.busy_s.") + kStages[i], exec.busy_s[i], "s"});
  }
  m.insert(m.end(), {
      {"exec.idle_frac",
       1.0 - ratio(busy, static_cast<double>(exec.lanes) * exec.run_s), "frac"},
      {"exec.peak_backlog", static_cast<double>(exec.peak_backlog), "count"},
      {"exec.shard_p99_ms_max", median(exec.shard_p99_ms), "ms"},
      {"exec.uncovered_frac", ratio(engine - calls, engine), "frac"},
      {"stage.featurize_us", 1e6 * per_call(0), "us"},
      {"stage.refit_ms", 1e3 * per_call(1), "ms"},
      {"stage.refit_tail_ms", 1e3 * tail_mean(ledger.refit_seconds, 0.01), "ms"},
      {"stage.predict_us", 1e6 * per_call(2), "us"},
  });

  const auto replay_start = Clock::now();
  const Replay r = replay_components(
      std::span<const trace::Job>(s.jobs).first(
          std::min(w.replay_jobs, s.jobs.size())),
      tuned(w.family, w.refit), tracer);
  record(tracer, "component replay", "replay", replay_start);
  const double refits = static_cast<double>(r.refits);
  const double parts = r.assemble_s + r.gbt_s + r.logistic_s;
  m.insert(m.end(), {
      {"fitsession.assemble_us", 1e6 * ratio(r.assemble_s, refits), "us"},
      {"gbt.fit_ms", median(r.fit_probe_ms), "ms"},
      {"gbt.continue_ms", median(r.continue_probe_ms), "ms"},
      {"gbt.refit_ms", 1e3 * ratio(r.gbt_s, refits), "ms"},
      {"gbt.fit_calls", static_cast<double>(r.fits), "count"},
      {"gbt.continue_calls", static_cast<double>(r.continues), "count"},
      {"logistic.fit_ms",
       1e3 * ratio(r.logistic_s, static_cast<double>(r.logistic_fits)), "ms"},
      {"replay.residual_frac", ratio(std::abs(r.real_s - parts), r.real_s),
       "frac"},
  });

  const auto kernel_start = Clock::now();
  const KernelProbe k =
      probe_kernels(static_cast<std::size_t>(median(r.late_rows)),
                    static_cast<std::size_t>(median(r.tasks)), seed);
  record(tracer, "kernel probes", "kernel", kernel_start);
  m.insert(m.end(), {
      {"kernel.hist_accumulate_ns_per_row", k.hist_ns_per_row, "ns"},
      {"kernel.hist_accumulate_gbps", k.hist_gbps, "GB/s"},
      {"kernel.hist_subtract_ns_per_bin", k.subtract_ns_per_bin, "ns"},
      {"kernel.sigmoid_ns_per_elem", k.sigmoid_ns_per_elem, "ns"},
  });
  m.insert(m.end(), t.cluster.begin(), t.cluster.end());

  const double ops = static_cast<double>(std::max<std::size_t>(t.ops, 1));
  m.insert(m.end(), {
      {"alloc.per_op", static_cast<double>(t.allocs.count) / ops, "count"},
      {"alloc.mib_per_op",
       static_cast<double>(t.allocs.bytes) / ops / (1024.0 * 1024.0), "MiB"},
      {"trace_overhead_pct",
       100.0 * ratio(t.events_per_s - t.traced_events_per_s, t.events_per_s),
       "%"},
  });
  return m;
}

Outcome run_workload(const Workload& w, std::uint64_t seed, double seconds,
                     Tracer* tracer) {
  const bool traced = tracer != nullptr;
  const auto method =
      core::predictor_by_name(w.method, tuned(w.family, w.refit));
  StageLedger ledger;
  const auto timed = timed_method(method, &ledger, tracer);

  // The quality pass comes first: a process started after the host sat
  // idle ran its first second or so about four times slower, which read as
  // set-up time.
  Outcome o;
  const double f1 = quality_pass(w, method, &o);

  // Untraced runs set up five times and report the median; traced runs set
  // up once, sim-chaos serving its flags under the timing wrapper.
  std::optional<Setup> setup;
  std::vector<double> setup_s;
  for (int i = 0; i < (traced ? 1 : 5); ++i) {
    setup.reset();
    setup.emplace(set_up(w, traced && w.sim ? timed : method, seed, tracer));
    setup_s.push_back(setup->total_s);
  }

  Reference reference;
  const Timed t =
      w.sim ? time_simulation(*setup, method, seed, seconds, tracer,
                              &reference, &o)
            : time_serving(w, *setup, method, timed, seed, seconds, tracer,
                           &reference, &o);
  o.correct = o.failed == 0;
  std::printf("flag_digest %016llx\n",
              static_cast<unsigned long long>(flag_digest(reference)));

  if (traced) {
    o.metrics = layer_metrics(w, *setup, t, ledger, seed, tracer);
  } else {
    o.metrics = {
        {"events_per_s", t.events_per_s, "1/s"},
        {"latency_p50_ms", t.p50_ms, "ms"},
        {"latency_p99_ms", t.p99_ms, "ms"},
        {"setup_s", median(setup_s), "s"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
        {"macro_f1", f1, "f1"},
    };
  }
  return o;
}

std::string result_json(const Outcome& o) {
  JsonWriter json;
  json.begin_object();
  json.key("correct").value(o.correct);
  json.key("attempted").value(static_cast<std::uint64_t>(o.attempted));
  json.key("failed").value(static_cast<std::uint64_t>(o.failed));
  json.key("metrics").begin_object();
  for (const Metric& metric : o.metrics) {
    json.key(metric.name).begin_object();
    json.key("value").value(metric.value);
    json.key("unit").value(metric.unit);
    json.end_object();
  }
  json.end_object();
  json.end_object();
  return json.str();
}

int run(int argc, char** argv) {
  Flags flags(argc, argv);
  const Workload& w = workload_by_name(flags.take("workload", ""));
  const auto seed = static_cast<std::uint64_t>(flags.take_number("seed", 0));
  const double seconds = flags.take_number("seconds", 10);
  const std::string trace_stem = flags.take("trace", "");
  flags.reject_unknown();

  std::printf("nurd_bench: workload %s, seed %llu, %g s, kernel backend %s, "
              "%zu threads\n",
              w.name, static_cast<unsigned long long>(seed), seconds,
              kernel::backend_name(), kThreads);
  std::optional<Tracer> tracer;
  if (!trace_stem.empty()) tracer.emplace(Clock::now());
  const Outcome o =
      run_workload(w, seed, seconds, tracer ? &*tracer : nullptr);

  for (const Metric& metric : o.metrics) {
    if (!std::isfinite(metric.value)) {
      throw std::runtime_error("metric " + metric.name + " is not finite");
    }
    std::printf("%s %s %.6g %s\n", w.name, metric.name.c_str(), metric.value,
                metric.unit.c_str());
  }
  const std::string result = result_json(o);
  if (tracer) {
    if (!tracer->write(trace_stem + ".trace.json") ||
        !write_file(trace_stem + ".layers.json", result + "\n")) {
      throw std::runtime_error("cannot write trace files at " + trace_stem);
    }
    std::printf("trace written to %s.trace.json\n", trace_stem.c_str());
  }
  std::printf("%s\n", result.c_str());
  return o.correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(argc, argv);
  } catch (const std::exception& e) {
    std::fflush(stdout);
    std::fprintf(stderr, "nurd_bench: %s\n", e.what());
    return 2;
  }
}
