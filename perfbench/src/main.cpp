// Host-time benchmark of GSFL and SFL rounds.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--trace-file <path>]
//
// One process with at most kLanes busy threads (fewer when the machine has
// fewer CPUs; see the thread budget in run()). Each run builds the workload's
// world from --seed, times a loop of rounds (plus an evaluation after each)
// for --seconds, then re-runs a prefix of the same rounds on one lane and
// compares losses, latency breakdowns and the model bitwise. The first round
// is a warm-up: run and checked, never timed.
//
// --trace 0 prints the end-to-end metrics; --trace 1 runs the per-layer
// probes, traces every other round, writes a Chrome trace-event file and
// prints the per-layer metrics. The last stdout line is the JSON result.
#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "gsfl/common/async_lane.hpp"
#include "gsfl/common/thread_pool.hpp"
#include "gsfl/core/experiment.hpp"
#include "gsfl/metrics/evaluate.hpp"
#include "gsfl/nn/split.hpp"
#include "probes.hpp"
#include "report.hpp"
#include "stats.hpp"
#include "trace.hpp"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;
using gsfl::schemes::RoundResult;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads

// Both workloads run on ExperimentConfig::scaled(). The paper() world is
// not one: its working set outgrows the per-core caches, and on a shared
// host its round time drifts by more than the benchmark's bounds between
// runs of the same build (see README.md).

enum class Scheme { kGsfl, kSfl };

struct Workload {
  const char* name;
  Scheme scheme;
  std::size_t depth;  ///< rounds in flight; 1 = barriered run_round
};

constexpr Workload kWorkloads[] = {
    {"tiny-gsfl", Scheme::kGsfl, 1},
    {"tiny-sfl-pipelined", Scheme::kSfl, 2},
};

/// Set-ups per burst. A run times one burst before the timed loop and one
/// after it, so that setup_s, their median, samples the host at both ends of
/// the run rather than in one sub-second window.
constexpr std::size_t kSetupReps = 20;
/// Rounds re-run on one lane and compared bitwise (untraced / traced run).
constexpr std::size_t kCheckRounds = 8;
constexpr std::size_t kTracedCheckRounds = 12;

const Workload* find_workload(const std::string& name) {
  for (const auto& w : kWorkloads) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

gsfl::core::ExperimentConfig world_config(std::uint64_t seed) {
  auto config = gsfl::core::ExperimentConfig::scaled();
  config.seed = seed;
  config.train.seed = seed * 2 + 1;
  config.train.threads = 0;  // keep the process-wide lane budget
  return config;
}

std::unique_ptr<gsfl::schemes::Trainer> make_trainer(
    const gsfl::core::Experiment& exp, Scheme scheme) {
  switch (scheme) {
    case Scheme::kGsfl:
      return exp.make_gsfl();
    case Scheme::kSfl:
      return exp.make_sfl();
  }
  throw std::logic_error("unknown scheme");
}

/// Concurrent units of one round: groups (GSFL) or clients (SFL).
std::size_t round_width(const Workload& w,
                        const gsfl::core::ExperimentConfig& config) {
  switch (w.scheme) {
    case Scheme::kGsfl:
      return config.num_groups;
    case Scheme::kSfl:
      return config.num_clients;
  }
  return 1;
}

// ---------------------------------------------------------------------------
// Options

struct Options {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  bool trace = false;
  std::string trace_file;  ///< required with --trace 1
};

[[noreturn]] void usage_error(const std::string& message) {
  std::cerr << "perfbench: " << message
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s>"
               " --trace <0|1> [--trace-file <path>]"
               "\nworkloads:";
  for (const auto& w : kWorkloads) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

std::uint64_t parse_uint(const std::string& flag, const std::string& text) {
  if (text.empty() ||
      text.find_first_not_of("0123456789") != std::string::npos ||
      text.size() > 18) {
    usage_error(flag + " needs a non-negative integer, got '" + text + "'");
  }
  return std::stoull(text);
}

Options parse_options(int argc, char** argv) {
  Options o;
  std::map<std::string, std::string> seen;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--help" || flag == "-h") usage_error("help requested");
    if (flag.rfind("--", 0) != 0 || i + 1 >= argc) {
      usage_error("expected --flag value pairs, got '" + flag + "'");
    }
    if (!seen.emplace(flag, argv[i + 1]).second) {
      usage_error("duplicate " + flag);
    }
    ++i;
  }
  for (const auto& [flag, value] : seen) {
    if (flag == "--workload") {
      o.workload = value;
    } else if (flag == "--seed") {
      o.seed = parse_uint(flag, value);
    } else if (flag == "--seconds") {
      o.seconds = static_cast<double>(parse_uint(flag, value));
    } else if (flag == "--trace") {
      if (value != "0" && value != "1") usage_error("--trace takes 0 or 1");
      o.trace = value == "1";
    } else if (flag == "--trace-file") {
      o.trace_file = value;
    } else {
      usage_error("unknown flag " + flag);
    }
  }
  for (const char* required : {"--workload", "--seed", "--seconds", "--trace"}) {
    if (seen.count(required) == 0) usage_error(std::string("missing ") + required);
  }
  if (find_workload(o.workload) == nullptr) {
    usage_error("unknown workload '" + o.workload + "'");
  }
  if (o.seconds < 1) usage_error("--seconds must be at least 1");
  if (o.trace && o.trace_file.empty()) {
    usage_error("--trace 1 needs --trace-file");
  }
  return o;
}

// ---------------------------------------------------------------------------
// Process counters

struct Usage {
  double cpu_s = 0.0;
  double ctx_switches = 0.0;
  double peak_rss_mb = 0.0;
  double steal_s = 0.0;  ///< machine-wide time the hypervisor ran others
};

/// Steal seconds summed over all CPUs, from /proc/stat (0 where absent).
double read_steal_s() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  in >> cpu;
  for (double& f : fields) in >> f;
  return in ? fields[7] / static_cast<double>(sysconf(_SC_CLK_TCK)) : 0.0;
}

Usage read_usage() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) + 1e-6 * static_cast<double>(t.tv_usec);
  };
  return Usage{tv(ru.ru_utime) + tv(ru.ru_stime),
               static_cast<double>(ru.ru_nvcsw + ru.ru_nivcsw),
               static_cast<double>(ru.ru_maxrss) / 1024.0, read_steal_s()};
}

std::size_t thread_count() {
  std::error_code ec;
  std::size_t n = 0;
  for (const auto& entry :
       std::filesystem::directory_iterator("/proc/self/task", ec)) {
    (void)entry;
    ++n;
  }
  return n;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// ---------------------------------------------------------------------------
// Bitwise comparison

bool same_bits(double a, double b) {
  return std::memcmp(&a, &b, sizeof a) == 0;
}

bool same_round(const RoundResult& a, const RoundResult& b) {
  const auto& x = a.latency;
  const auto& y = b.latency;
  return same_bits(a.train_loss, b.train_loss) &&
         same_bits(x.client_compute, y.client_compute) &&
         same_bits(x.server_compute, y.server_compute) &&
         same_bits(x.uplink, y.uplink) && same_bits(x.downlink, y.downlink) &&
         same_bits(x.relay, y.relay) &&
         same_bits(x.aggregation, y.aggregation);
}

bool same_state(const gsfl::nn::StateDict& a, const gsfl::nn::StateDict& b) {
  if (a.empty() || a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].shape() != b[i].shape()) return false;
    if (std::memcmp(a[i].data().data(), b[i].data().data(),
                    a[i].size_bytes()) != 0) {
      return false;
    }
  }
  return true;
}

// ---------------------------------------------------------------------------
// The timed loop

struct RoundRecord {
  std::size_t round = 0;
  RoundResult result;
  gsfl::metrics::EvalResult eval;
  double round_s = 0.0;        ///< barriered: run_round; pipelined: collect gap
  double global_model_s = 0.0;
  double eval_s = 0.0;         ///< metrics::evaluate alone
  double submit_s = 0.0;       ///< pipelined only
  double collect_wait_s = 0.0; ///< pipelined only
  bool traced = false;
};

struct LoopResult {
  std::vector<RoundRecord> rounds;
  double timed_wall_s = 0.0;  ///< after the warm-up round to the last eval
  Usage usage_start;
  Usage usage_end;
  gsfl::nn::StateDict snapshot;  ///< global model after the checked prefix
};

struct LoopSpec {
  double seconds = 0.0;
  std::size_t min_rounds = 0;      ///< including the warm-up round
  std::size_t snapshot_round = 0;  ///< round whose model is snapshotted
  bool trace = false;              ///< trace every other timed round
};

bool traced_round(const LoopSpec& spec, std::size_t round) {
  return spec.trace && round % 2 == 1;
}

constexpr std::size_t kEvalBatch = 64;
constexpr std::size_t kLanes = 4;

LoopResult run_barriered(gsfl::schemes::Trainer& trainer,
                         const gsfl::data::Dataset& test,
                         const LoopSpec& spec, Tracer& tracer) {
  LoopResult out;
  Clock::time_point timed_start;
  for (std::size_t r = 0;; ++r) {
    RoundRecord rec;
    rec.round = r;
    rec.traced = traced_round(spec, r);
    const auto t0 = Clock::now();
    {
      auto s = tracer.span("schemes.run_round", "schemes", rec.traced,
                           static_cast<std::int64_t>(r));
      rec.result = trainer.run_round();
    }
    rec.round_s = since(t0);
    const auto t1 = Clock::now();
    gsfl::nn::Sequential model;
    {
      auto s = tracer.span("schemes.global_model", "schemes", rec.traced,
                           static_cast<std::int64_t>(r));
      model = trainer.global_model();
    }
    rec.global_model_s = since(t1);
    const auto t2 = Clock::now();
    {
      auto s = tracer.span("metrics.evaluate", "metrics", rec.traced,
                           static_cast<std::int64_t>(r));
      rec.eval = gsfl::metrics::evaluate(model, test, kEvalBatch);
    }
    rec.eval_s = since(t2);
    if (r == spec.snapshot_round) out.snapshot = model.state();
    out.rounds.push_back(rec);
    if (r + 1 == kWarmupRounds) {
      timed_start = Clock::now();
      out.usage_start = read_usage();
    } else if (r + 1 >= spec.min_rounds && since(timed_start) >= spec.seconds) {
      break;
    }
  }
  out.timed_wall_s = since(timed_start);
  out.usage_end = read_usage();
  return out;
}

struct EvalOut {
  gsfl::metrics::EvalResult eval;
  double global_model_s = 0.0;
  double eval_s = 0.0;
  gsfl::nn::StateDict state;  ///< set for the snapshot round only
};

LoopResult run_pipelined(gsfl::schemes::Trainer& trainer,
                         const gsfl::data::Dataset& test, const LoopSpec& spec,
                         std::size_t depth, Tracer& tracer) {
  struct Flight {
    RoundRecord rec;
    gsfl::schemes::RoundTicket ticket;
    gsfl::common::TaskFuture<EvalOut> eval;
  };
  LoopResult out;
  std::deque<Flight> window;
  gsfl::common::TaskHandle release;
  Clock::time_point timed_start;
  Clock::time_point last_return;
  bool stop = false;

  const auto drain_front = [&] {
    Flight f = std::move(window.front());
    window.pop_front();
    const auto round = static_cast<std::int64_t>(f.rec.round);
    const auto t0 = Clock::now();
    {
      auto s = tracer.span("schemes.collect_round", "schemes", f.rec.traced,
                           round);
      f.rec.result = trainer.collect_round(f.ticket);
    }
    const auto returned = Clock::now();
    f.rec.collect_wait_s = since(t0);
    EvalOut& e = f.eval.wait();
    f.rec.eval = e.eval;
    f.rec.global_model_s = e.global_model_s;
    f.rec.eval_s = e.eval_s;
    if (f.rec.round == spec.snapshot_round) out.snapshot = std::move(e.state);
    if (f.rec.round + 1 == kWarmupRounds) {
      timed_start = returned;
      out.usage_start = read_usage();
    } else if (f.rec.round >= kWarmupRounds) {
      f.rec.round_s =
          std::chrono::duration<double>(returned - last_return).count();
      if (f.rec.round + 1 >= spec.min_rounds &&
          since(timed_start) >= spec.seconds) {
        stop = true;
      }
    }
    last_return = returned;
    out.rounds.push_back(std::move(f.rec));
  };

  try {
    for (std::size_t r = 0; !stop; ++r) {
      Flight f;
      f.rec.round = r;
      f.rec.traced = traced_round(spec, r);
      const auto round = static_cast<std::int64_t>(r);
      const bool traced = f.rec.traced;
      const auto t0 = Clock::now();
      {
        auto s = tracer.span("schemes.submit_round", "schemes", traced, round);
        f.ticket = trainer.submit_round(release);
      }
      f.rec.submit_s = since(t0);
      const bool snapshot = r == spec.snapshot_round;
      f.eval = gsfl::common::global_lane().submit_after(
          [&trainer, &test, &tracer, traced, round, snapshot] {
            EvalOut e;
            const auto a = Clock::now();
            gsfl::nn::Sequential model;
            {
              auto s = tracer.span("schemes.global_model", "schemes", traced,
                                   round);
              model = trainer.global_model();
            }
            e.global_model_s = since(a);
            const auto b = Clock::now();
            {
              auto s =
                  tracer.span("metrics.evaluate", "metrics", traced, round);
              e.eval = gsfl::metrics::evaluate(model, test, kEvalBatch);
            }
            e.eval_s = since(b);
            if (snapshot) e.state = model.state();
            return e;
          },
          {f.ticket.done.handle()});
      release = f.eval.handle();
      window.push_back(std::move(f));
      if (window.size() >= depth) drain_front();
    }
    while (!window.empty()) drain_front();
  } catch (...) {
    // Lane tasks reference the trainer and test set: settle every one of
    // them before unwinding, then report the first error.
    while (!window.empty()) {
      try {
        (void)trainer.collect_round(window.front().ticket);
      } catch (...) {
      }
      try {
        (void)window.front().eval.wait();
      } catch (...) {
      }
      window.pop_front();
    }
    throw;
  }
  out.timed_wall_s = std::chrono::duration<double>(last_return - timed_start)
                         .count();
  out.usage_end = read_usage();
  return out;
}

// ---------------------------------------------------------------------------
// Run

struct Setup {
  std::unique_ptr<gsfl::core::Experiment> exp;
  std::unique_ptr<gsfl::schemes::Trainer> trainer;
  std::vector<double> total_s;
  std::vector<double> experiment_s;
  std::vector<double> make_trainer_s;
};

/// Times kSetupReps set-ups into `s`, which keeps the last one built.
void set_up(const Workload& w, std::uint64_t seed, Tracer& tracer, Setup& s) {
  for (std::size_t i = 0; i < kSetupReps; ++i) {
    s.trainer.reset();
    s.exp.reset();
    const auto t0 = Clock::now();
    {
      auto span = tracer.span("core.Experiment", "core");
      s.exp = std::make_unique<gsfl::core::Experiment>(world_config(seed));
    }
    const auto t1 = Clock::now();
    {
      auto span = tracer.span("core.make_trainer", "core");
      s.trainer = make_trainer(*s.exp, w.scheme);
    }
    const auto t2 = Clock::now();
    s.experiment_s.push_back(std::chrono::duration<double>(t1 - t0).count());
    s.make_trainer_s.push_back(std::chrono::duration<double>(t2 - t1).count());
    s.total_s.push_back(std::chrono::duration<double>(t2 - t0).count());
  }
}

/// Smashed activations up, labels up, smashed gradients down: the cut-layer
/// bytes of one round, computed from the model's shapes.
double cut_bytes_per_round(const gsfl::core::Experiment& exp) {
  const auto& config = exp.config();
  const gsfl::nn::SplitModel split(exp.initial_model(), config.cut_layer);
  const std::size_t batch = config.train.batch_size;
  double bytes = 0.0;
  for (const auto& d : exp.client_data()) {
    for (std::size_t begin = 0; begin < d.size(); begin += batch) {
      const std::size_t b = std::min(batch, d.size() - begin);
      const double smashed =
          static_cast<double>(split.smashed_bytes(d.batch_shape(b)));
      bytes += 2.0 * smashed + static_cast<double>(b * sizeof(std::int32_t));
    }
  }
  return bytes * static_cast<double>(config.train.local_epochs);
}

/// Training samples (or, with `per_batch`, optimizer steps) of one round:
/// every client runs its local epochs over all of its data.
std::size_t round_work(const gsfl::core::Experiment& exp, bool per_batch) {
  const auto& train = exp.config().train;
  std::size_t n = 0;
  for (const auto& d : exp.client_data()) {
    n += per_batch ? (d.size() + train.batch_size - 1) / train.batch_size
                   : d.size();
  }
  return n * train.local_epochs;
}

int run(const Options& opt) {
  const Workload& w = *find_workload(opt.workload);
  Tracer tracer(opt.trace);
  Tally tally;
  Report report;

  // Thread budget: at most `lanes` threads run work at once. The pool and
  // the async lane both size themselves from GSFL_THREADS on first use, so
  // pin it before either exists. Barriered rounds run on the pool alone:
  // the main thread plus lanes-1 workers. Pipelined rounds run every stage,
  // evaluation included, as async-lane tasks, and a thread waiting on a task
  // nobody has claimed runs it itself; so the lane gets lanes-1 workers
  // beside the main thread, and the pool drops to one inline lane whenever
  // lane tasks run.
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t lanes = std::min<std::size_t>(kLanes, hw > 0 ? hw : kLanes);
  const bool pipelined = w.depth > 1;
  const std::size_t lane_workers = std::max<std::size_t>(lanes - 1, 1);
  const std::size_t pool_lanes = pipelined ? 1 : lanes;
  setenv("GSFL_THREADS", std::to_string(lane_workers).c_str(), 1);
  (void)gsfl::common::global_lane();
  gsfl::common::set_global_threads(pool_lanes);
  // Threads that run one round's concurrent units side by side.
  const std::size_t width_lanes = pipelined ? lane_workers : pool_lanes;

  std::printf("# workload %s seed %llu seconds %g trace %d\n", w.name,
              static_cast<unsigned long long>(opt.seed), opt.seconds,
              opt.trace ? 1 : 0);
  std::printf(
      "# env nproc %u lanes %zu pool_lanes %zu lane_workers %zu cpu \"%s\"\n",
      hw, lanes, gsfl::common::global_lanes(),
      gsfl::common::global_lane().workers(), cpu_model().c_str());
  std::printf("# env compiler \"%s\" build_type %s\n", __VERSION__,
              PERFBENCH_BUILD_TYPE);

  Setup setup;
  set_up(w, opt.seed, tracer, setup);
  const auto& exp = *setup.exp;
  const auto& config = exp.config();
  auto& trainer = *setup.trainer;
  const std::size_t check_rounds =
      opt.trace ? kTracedCheckRounds : kCheckRounds;
  const std::size_t samples_per_round = round_work(exp, false);
  const std::size_t fold_replicas =
      w.scheme == Scheme::kGsfl ? config.num_groups : config.num_clients;

  ProbeSetup probe{exp, fold_replicas, tracer};
  if (opt.trace) {
    probe_data(probe, report);
    probe_layers(probe, report);
  }

  // The timed loop at the full lane budget.
  LoopSpec spec;
  spec.seconds = opt.seconds;
  spec.min_rounds = check_rounds;
  spec.snapshot_round = check_rounds - 1;
  spec.trace = opt.trace;
  const LoopResult loop =
      pipelined ? run_pipelined(trainer, exp.test_set(), spec, w.depth, tracer)
                  : run_barriered(trainer, exp.test_set(), spec, tracer);
  const double peak_rss_mb = read_usage().peak_rss_mb;

  for (const auto& rec : loop.rounds) {
    if (!tally.record(std::isfinite(rec.result.train_loss))) {
      std::fprintf(stderr, "check failed: round %zu loss %g\n", rec.round,
                   rec.result.train_loss);
    }
    if (!tally.record(std::isfinite(rec.eval.loss) && rec.eval.accuracy >= 0 &&
                      rec.eval.accuracy <= 1)) {
      std::fprintf(stderr, "check failed: round %zu eval loss %g acc %g\n",
                   rec.round, rec.eval.loss, rec.eval.accuracy);
    }
  }
  // Accuracy floor: three times chance once training has run.
  const double final_acc = loop.rounds.back().eval.accuracy;
  const double floor = 3.0 / static_cast<double>(config.dataset.num_classes);
  if (!tally.record(final_acc >= floor)) {
    std::fprintf(stderr, "check failed: final accuracy %g below floor %g\n",
                 final_acc, floor);
  }

  // One-lane reference over the checked prefix.
  gsfl::common::set_global_threads(1);
  auto reference = make_trainer(exp, w.scheme);
  std::vector<double> t1_round_s;
  for (std::size_t r = 0; r < check_rounds; ++r) {
    const auto t0 = Clock::now();
    const RoundResult ref = [&] {
      auto s = tracer.span("schemes.run_round.t1", "schemes", true,
                           static_cast<std::int64_t>(r));
      return reference->run_round();
    }();
    if (r >= kWarmupRounds) t1_round_s.push_back(since(t0));
    if (!tally.record(same_round(ref, loop.rounds.at(r).result))) {
      std::fprintf(stderr,
                   "check failed: round %zu differs from the one-lane run "
                   "(loss %.17g vs %.17g, sim %.17g vs %.17g)\n",
                   r, loop.rounds[r].result.train_loss, ref.train_loss,
                   loop.rounds[r].result.latency.total(),
                   ref.latency.total());
    }
  }
  if (!tally.record(same_state(reference->global_model().state(),
                               loop.snapshot))) {
    std::fprintf(stderr,
                 "check failed: global model after round %zu differs from "
                 "the one-lane run\n",
                 check_rounds - 1);
  }
  reference.reset();
  gsfl::common::set_global_threads(pool_lanes);

  // The second burst of set-ups, on objects of its own: the timed trainer
  // stays alive for the probes below.
  {
    Setup late;
    set_up(w, opt.seed, tracer, late);
    const auto append = [](std::vector<double>& to,
                           const std::vector<double>& from) {
      to.insert(to.end(), from.begin(), from.end());
    };
    append(setup.total_s, late.total_s);
    append(setup.experiment_s, late.experiment_s);
    append(setup.make_trainer_s, late.make_trainer_s);
  }
  if (opt.trace) {
    report.set("core.experiment_ms", 1e3 * median(setup.experiment_s), "ms");
    report.set("core.make_trainer_ms", 1e3 * median(setup.make_trainer_s),
               "ms");
  }

  // Round metrics, warm-up excluded.
  RoundTimes round_times;
  RoundTimes traced_times;
  RoundTimes untraced_times;
  std::vector<double> eval_s;
  std::vector<double> global_model_s;
  std::vector<double> submit_s;
  std::vector<double> collect_wait_s;
  std::vector<double> eval_total_s;  ///< global_model() + evaluate
  std::size_t timed_rounds = 0;
  for (const auto& rec : loop.rounds) {
    round_times.add(rec.round, rec.round_s);
    (rec.traced ? traced_times : untraced_times).add(rec.round, rec.round_s);
    if (rec.round < kWarmupRounds) continue;
    ++timed_rounds;
    eval_s.push_back(rec.eval_s);
    global_model_s.push_back(rec.global_model_s);
    submit_s.push_back(rec.submit_s);
    collect_wait_s.push_back(rec.collect_wait_s);
    eval_total_s.push_back(rec.eval_s + rec.global_model_s);
  }
  // The gated round metric is the 10th percentile. Round times on a shared
  // host switch between a fast and a slow mode every few tenths of a second,
  // and the median falls between the two, so it jumps with the mix from run
  // to run; the 10th percentile stays inside the fast mode. The median and
  // the 90th percentile are printed beside it.
  const double p10 = percentile(round_times.timed(), 10);
  const double test_samples = static_cast<double>(exp.test_set().size());

  Report e2e;
  e2e.set("setup_s", median(setup.total_s), "s");
  e2e.set("train_samples_per_s",
          static_cast<double>(samples_per_round * timed_rounds) /
              loop.timed_wall_s,
          "samples/s");
  e2e.set("round_s_p10", p10, "s");
  e2e.set("eval_samples_per_s", test_samples / median(eval_total_s),
          "samples/s");
  e2e.set("peak_rss_mb", peak_rss_mb, "MB");

  std::printf("# set-ups %zu:", setup.total_s.size());
  for (const double t : setup.total_s) std::printf(" %.4f", t);
  std::printf("\n");
  std::printf("# timed rounds %zu (warm-up round excluded), %.3f s:",
              timed_rounds, loop.timed_wall_s);
  for (const double t : round_times.timed()) std::printf(" %.4f", t);
  std::printf("\n");
  std::printf("end_to_end %-36s %.6g s (n=%zu)\n", "round_s_p50",
              median(round_times.timed()), round_times.count());
  if (percentile_reportable(round_times.count(), 90)) {
    std::printf("end_to_end %-36s %.6g s (n=%zu)\n", "round_s_p90",
                percentile(round_times.timed(), 90), round_times.count());
  } else {
    std::printf("# round_s_p90 not reported: %zu rounds leave fewer than 10 "
                "beyond p90\n",
                round_times.count());
  }
  std::printf("# final accuracy %.4f (floor %.4f)\n", final_acc, floor);

  if (opt.trace) {
    report.set("schemes.global_model_ms", 1e3 * median(global_model_s), "ms");
    if (pipelined) {
      report.set("schemes.submit_ms", 1e3 * median(submit_s), "ms");
      report.set("schemes.collect_wait_ms", 1e3 * median(collect_wait_s),
                 "ms");
    } else {
      // The barriered workload never splits a round; time one round through
      // the submit/collect API on the same trainer, with the lane-task
      // thread budget.
      gsfl::common::set_global_threads(1);
      auto ticket = [&] {
        const auto t0 = Clock::now();
        auto s = tracer.span("schemes.submit_round", "schemes");
        auto tk = trainer.submit_round();
        report.set("schemes.submit_ms", 1e3 * since(t0), "ms");
        return tk;
      }();
      const auto t0 = Clock::now();
      RoundResult extra;
      {
        auto s = tracer.span("schemes.collect_round", "schemes");
        extra = trainer.collect_round(ticket);
      }
      report.set("schemes.collect_wait_ms", 1e3 * since(t0), "ms");
      tally.record(std::isfinite(extra.train_loss));
      gsfl::common::set_global_threads(pool_lanes);
    }
    const double t1 = median(t1_round_s);
    const double untraced_p50 = median(untraced_times.timed());
    report.set("schemes.round_s.t1", t1, "s");
    report.set("schemes.scaling_x", t1 / untraced_p50, "x");
    const double step_s = (report.find("nn.model.fwd_ms")->value +
                           report.find("nn.model.bwd_ms")->value) /
                          1e3;
    const double width = static_cast<double>(
        std::min<std::size_t>(width_lanes, round_width(w, config)));
    report.set("schemes.round_overhead_share",
               1.0 - static_cast<double>(round_work(exp, true)) *
                         step_s / (untraced_p50 * width),
               "share");
    report.set("metrics.eval_ms", 1e3 * median(eval_s), "ms");

    // Simulated time over the checked prefix: deterministic per seed.
    gsfl::sim::LatencyBreakdown sum;
    for (std::size_t r = 0; r < check_rounds; ++r) {
      sum += loop.rounds[r].result.latency;
    }
    report.set("sim.round_latency_s",
               sum.total() / static_cast<double>(check_rounds), "s");
    report.set("sim.comm_share", sum.comm() / sum.total(), "share");
    report.set("net.cut_bytes_per_round", cut_bytes_per_round(exp), "bytes");

    const double rounds_d = static_cast<double>(timed_rounds);
    report.set("proc.cpu_s_per_round",
               (loop.usage_end.cpu_s - loop.usage_start.cpu_s) / rounds_d, "s");
    report.set("proc.ctx_switches_per_round",
               (loop.usage_end.ctx_switches - loop.usage_start.ctx_switches) /
                   rounds_d,
               "count");
    report.set("trace.overhead",
               median(traced_times.timed()) / untraced_p50 - 1.0, "share");

    // Simulated lane: each round's breakdown, stacked from the round's start.
    double sim_t = 0.0;
    for (const auto& rec : loop.rounds) {
      const auto& l = rec.result.latency;
      const auto r = static_cast<std::int64_t>(rec.round);
      double t = sim_t;
      const std::pair<const char*, double> parts[] = {
          {"sim.client_compute", l.client_compute},
          {"sim.uplink", l.uplink},
          {"sim.server_compute", l.server_compute},
          {"sim.downlink", l.downlink},
          {"sim.relay", l.relay},
          {"sim.aggregation", l.aggregation}};
      tracer.add_sim("sim.round", sim_t, l.total(), r);
      for (const auto& [name, seconds] : parts) {
        if (seconds <= 0.0) continue;
        tracer.add_sim(name, t, seconds, r);
        t += seconds;
      }
      sim_t += l.total();
    }
    if (!tally.record(tracer.write_chrome(opt.trace_file))) {
      std::fprintf(stderr, "check failed: cannot write %s\n",
                   opt.trace_file.c_str());
    }
    std::printf("# trace %s (%zu host spans)\n", opt.trace_file.c_str(),
                tracer.host_spans());
  }

  std::printf("# env threads %zu, steal %.2f cpu-s during the timed loop\n",
              thread_count(),
              loop.usage_end.steal_s - loop.usage_start.steal_s);
  std::printf("# error_rate %.6g (%llu failed of %llu attempted)\n",
              tally.error_rate(),
              static_cast<unsigned long long>(tally.failed()),
              static_cast<unsigned long long>(tally.attempted()));
  e2e.print_lines("end_to_end");
  if (opt.trace) report.print_lines("per_layer");
  const bool correct = tally.failed() == 0;
  (opt.trace ? report : e2e).print_json(correct, tally.attempted(),
                                        tally.failed());
  return correct ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  const perfbench::Options options = perfbench::parse_options(argc, argv);
  try {
    return perfbench::run(options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
