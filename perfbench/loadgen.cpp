// perfbench_loadgen: one workload of the end-to-end benchmark, in its own
// process.
//
//   perfbench_loadgen --workload <name> --seed <n> --seconds <s>
//                    --trace <0|1> --out <file.json>
//
// Every workload is a closed loop with a fixed job count: --seconds times
// a per-workload constant.  A run never stops on the wall clock, so
// memory retained per job shows the same way in every run.  The load generator
//   1. generates the inputs from --seed and computes each job's golden
//      reference on the reference engines (untimed);
//   2. sets the system under test up several times — construction,
//      image uploads and one untimed warm-up pass over every slot — and
//      times each set-up;
//   3. runs the measured loop on the last set-up, its threads rotating
//      over the CPUs, checking every job against its golden reference;
//   4. with --trace 1, runs the loop again with spans around the calls
//      into each layer (serve, sim, rv32, xlat, tech, core) and replays
//      the loop's programs through those layers' public functions.
// Raw samples go to --out; run.py turns them into the metrics.
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/benchmarks.hpp"
#include "core/hardware_framework.hpp"
#include "rv32/cycle_models.hpp"
#include "rv32/rv32_assembler.hpp"
#include "serve/http.hpp"
#include "serve/image_cache.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "sim/engine.hpp"
#include "sim/pipeline.hpp"
#include "sim/service.hpp"
#include "sim/snapshot.hpp"
#include "tech/analyzer.hpp"
#include "tech/datapath.hpp"
#include "tech/estimator.hpp"
#include "trace.hpp"
#include "xlat/framework.hpp"

namespace perfbench {
namespace {

using namespace art9;

constexpr int kSetups = 21;                   // set-ups per run; setup_s is their median
constexpr uint64_t kMaxSteps = 100'000'000;   // per-job step budget
constexpr double kJobTimeoutMs = 30'000.0;    // a job not done by then counts as failed
constexpr uint64_t kLongDhrystoneIters = 2000;
constexpr std::size_t kReplayPrograms = 10;   // distinct programs replayed per traced run
constexpr int kReplayReps = 3;
constexpr int kProbeJobs = 3;                 // per program, in the serve/service probes

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Reads a field of /proc/self/status in kB ("VmHWM", "VmRSS").
double proc_status_kb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0 && line.size() > len && line[len] == ':') {
      return std::strtod(line.c_str() + len + 1, nullptr);
    }
  }
  return 0.0;
}

// --- inputs and golden references --------------------------------------------

/// The reference result of one program: what every job of it must return.
struct Golden {
  std::string digest;            // state_digest of the final snapshot
  uint64_t instructions = 0;
  std::vector<double> registers;
  double pc = 0.0;
  sim::MachineState state;       // in-process checks compare the whole state
  uint64_t pipeline_cycles = 0;  // paper_eval: reference pipeline run
  std::array<double, 2> dmips_per_watt{};  // paper_eval: per technology
  uint64_t pico_cycles = 0;      // paper_eval: rv32 baseline cycle model
};

/// One distinct program.  ART-9 programs are RV32 sources uploaded as
/// rv32_translate and run on `superblock`; rv32 ones are uploaded as
/// rv32 and run on `rv32_superblock`.
struct Program {
  std::string name;
  std::string source;  // RV32 assembly
  bool rv32 = false;
  uint64_t iterations = 1;
  int id = 0;  // its position in Workload::programs
  Golden golden;

  [[nodiscard]] const char* isa() const { return rv32 ? "rv32" : "art9"; }
  [[nodiscard]] serve::ImageFormat format() const {
    return rv32 ? serve::ImageFormat::kRv32Asm : serve::ImageFormat::kRv32Translate;
  }
  [[nodiscard]] sim::EngineKind kind() const {
    return rv32 ? sim::EngineKind::kRv32Superblock : sim::EngineKind::kSuperblock;
  }
};

std::string digest_of(const sim::MachineState& state) {
  const std::vector<uint8_t> blob = sim::serialize_snapshot(state);
  return serve::hex64(serve::fnv1a_64(blob.data(), blob.size()));
}

void compute_golden(Program& p) {
  sim::RunResult run;
  if (p.rv32) {
    run = sim::make_engine(sim::EngineKind::kRv32, rv32::assemble_rv32(p.source))
              ->run({kMaxSteps});
  } else {
    const xlat::TranslationResult t = xlat::SoftwareFramework().translate_source(p.source);
    run = sim::make_engine(sim::EngineKind::kFunctional, t.program)->run({kMaxSteps});
  }
  if (run.halt != sim::HaltReason::kHalted) {
    throw std::runtime_error(p.name + ": golden run did not halt");
  }
  Golden& g = p.golden;
  g.instructions = run.stats.instructions;
  g.digest = digest_of(run.state);
  if (p.rv32) {
    const auto& s = run.state.rv32();
    for (uint32_t r : s.regs) g.registers.push_back(static_cast<double>(r));
    g.pc = s.pc;
  } else {
    const auto& s = run.state.art9();
    for (int r = 0; r < isa::kNumRegisters; ++r) {
      g.registers.push_back(static_cast<double>(s.trf.read(r).to_int()));
    }
    g.pc = static_cast<double>(s.pc);
  }
  g.state = std::move(run.state);
}

const std::array<tech::Technology, 2>& technologies() {
  static const std::array<tech::Technology, 2> kTech = {tech::Technology::cntfet32(),
                                                        tech::Technology::fpga_binary_emulation()};
  return kTech;
}

/// paper_eval references, beside the functional ones: cycles from a
/// pipeline engine run, DMIPS/W from the estimator over those cycles,
/// PicoRV32 cycles from the rv32 cycle model.
void compute_paper_golden(Program& p) {
  Golden& g = p.golden;
  sim::SimStats stats;
  if (p.rv32) {
    const auto engine =
        sim::make_engine(sim::EngineKind::kRv32, rv32::assemble_rv32(p.source));
    rv32::PicoRv32CycleModel pico;
    engine->set_observer([&](const sim::Retired& r) { pico.observe(r.to_rv32()); });
    stats = engine->run_stats({kMaxSteps});
    g.pico_cycles = pico.cycles();
  } else {
    const xlat::TranslationResult t = xlat::SoftwareFramework().translate_source(p.source);
    stats = sim::make_engine(sim::EngineKind::kPipeline, t.program)->run_stats({kMaxSteps});
    g.pipeline_cycles = stats.cycles;
    const tech::Art9Design design = tech::build_art9_design({});
    for (std::size_t i = 0; i < technologies().size(); ++i) {
      g.dmips_per_watt[i] = tech::PerformanceEstimator()
                                .estimate(design, technologies()[i], stats.cycles / p.iterations)
                                .dmips_per_watt;
    }
  }
  if (stats.halt != sim::HaltReason::kHalted || stats.instructions != g.instructions) {
    throw std::runtime_error(p.name + ": reference runs disagree on the instruction count");
  }
}

/// The four paper programs as the 5-slot cycle on one ISA path: bubble,
/// gemm, sobel, dhrystone, dhrystone (Dhrystone twice, so p50 and p90 sit
/// at slot centres whatever order the programs' latencies come in).  The
/// distinct programs are appended to `programs`.
std::vector<const Program*> add_paper_cycle(std::vector<std::unique_ptr<Program>>& programs,
                                            bool rv32) {
  std::vector<const Program*> cycle;
  for (const core::BenchmarkSources* b : {&core::bubble_sort(), &core::gemm(), &core::sobel(),
                                          &core::dhrystone(), &core::dhrystone()}) {
    if (cycle.empty() || cycle.back()->source != b->rv32) {
      auto p = std::make_unique<Program>();
      p->name = b->name + "." + (rv32 ? "rv32" : "art9");
      p->source = b->rv32;
      p->rv32 = rv32;
      p->iterations = b->iterations;
      programs.push_back(std::move(p));
    }
    cycle.push_back(programs.back().get());
  }
  return cycle;
}

/// Dhrystone with `.equ ITERS` raised to `iters`.
std::string dhrystone_with_iters(uint64_t iters) {
  std::string src = core::dhrystone().rv32;
  const std::string key = ".equ ITERS, ";
  const std::size_t at = src.find(key);
  if (at == std::string::npos) throw std::runtime_error("dhrystone source has no ITERS");
  const std::size_t end = src.find('\n', at);
  src.replace(at + key.size(), end - at - key.size(), std::to_string(iters));
  return src;
}

// --- the report written to --out -----------------------------------------------

/// One attempted job of a loop, in the order the loop issued it.
struct JobRecord {
  uint64_t index = 0;
  bool rv32 = false;
  bool ok = false;
  double start_s = 0.0;      // the job's first request (its upload)
  double end_s = 0.0;        // result seen, or failure
  double latency_ms = 0.0;   // submit to result seen
  double upload_ms = 0.0;    // image upload round trip
  uint64_t insts = 0;        // simulated instructions retired
  int group = 0;             // cost group (metrics.py): program, and technology
};

struct Report {
  uint64_t attempted = 0;
  uint64_t completed = 0;
  uint64_t failed = 0;      // refused, failed, timed out or wrong
  uint64_t mismatched = 0;  // completed but different from the golden reference
  std::vector<std::string> failures;  // the first few reasons
  std::vector<JobRecord> jobs;
  double measure_s = 0.0;
  uint64_t http_gets = 0;

  JobRecord begin(uint64_t index, const Program& p, int tech = 0) {
    ++attempted;
    return JobRecord{index, p.rv32, false, now_us() / 1e6, 0.0, 0.0, 0.0, 0, p.id * 2 + tech};
  }

  void fail(JobRecord& job, std::string why, bool mismatch = false) {
    ++failed;
    if (mismatch) ++mismatched;
    if (failures.size() < 5) failures.push_back(std::move(why));
    job.end_s = now_us() / 1e6;
    jobs.push_back(job);
  }

  /// A check outside any job (the traced replay) found a wrong result.
  void mismatch(std::string why) {
    ++failed;
    ++mismatched;
    if (failures.size() < 5) failures.push_back(std::move(why));
  }

  void complete(JobRecord& job, double latency_ms, uint64_t insts) {
    ++completed;
    job.ok = true;
    job.end_s = now_us() / 1e6;
    job.latency_ms = latency_ms;
    job.insts = insts;
    jobs.push_back(job);
  }
};

/// Per-layer values that are not span durations.
struct Ledger {
  std::map<std::string, double> counters;
  std::map<std::string, std::vector<double>> samples;
};

/// The process's thread ids.
std::vector<pid_t> thread_ids() {
  std::vector<pid_t> tids;
  for (const auto& entry : std::filesystem::directory_iterator("/proc/self/task")) {
    tids.push_back(static_cast<pid_t>(std::stol(entry.path().filename().string())));
  }
  return tids;
}

/// Pins the process's threads to CPUs and rotates the assignment on
/// every move(), so each thread visits every CPU the process may use.
/// The host's CPUs run at different and changing speeds; a loop whose
/// threads visit all of them is not timed on whichever CPUs they happened
/// to land on.  The calling thread and its `companions` (threads that
/// only run while it waits for them) share one CPU; every other thread
/// gets its own, busiest first, and with more threads than CPUs the least
/// busy share the last.  Restores every thread's affinity on destruction.
class CpuRotation {
 public:
  explicit CpuRotation(std::vector<pid_t> companions = {})
      : caller_(static_cast<pid_t>(::gettid())), companions_(std::move(companions)) {
    CPU_ZERO(&allowed_);
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) {
      throw std::runtime_error("sched_getaffinity failed");
    }
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &allowed_)) cpus_.push_back(c);
    }
  }
  ~CpuRotation() {
    for (pid_t tid : thread_ids()) (void)sched_setaffinity(tid, sizeof allowed_, &allowed_);
  }

  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins CPU group g (0 = the caller's) to allowed CPU (g + k) mod n.
  void move(std::size_t k) const {
    const bool grouped = !companions_.empty();
    if (grouped) {
      pin(caller_, k);
      for (pid_t tid : companions_) pin(tid, k);
    }
    std::size_t group = grouped ? 1 : 0;
    for (pid_t tid : busiest_first()) {
      if (grouped && (tid == caller_ || std::find(companions_.begin(), companions_.end(), tid) !=
                                            companions_.end())) {
        continue;
      }
      pin(tid, std::min(group++, cpus_.size() - 1) + k);
    }
  }

 private:
  void pin(pid_t tid, std::size_t slot) const {
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[slot % cpus_.size()], &one);
    (void)sched_setaffinity(tid, sizeof one, &one);
  }

  /// The process's threads, most CPU time (user + system) first.
  static std::vector<pid_t> busiest_first() {
    std::vector<std::pair<long, pid_t>> threads;
    for (pid_t tid : thread_ids()) {
      std::ifstream in("/proc/self/task/" + std::to_string(tid) + "/stat");
      std::string stat((std::istreambuf_iterator<char>(in)), std::istreambuf_iterator<char>());
      // Fields after the parenthesised name: state is field 3, utime 14, stime 15.
      std::istringstream fields(stat.substr(stat.rfind(')') + 1));
      std::string field;
      long ticks = 0;
      for (int f = 3; f <= 15 && fields >> field; ++f) {
        if (f >= 14) ticks += std::stol(field);
      }
      threads.emplace_back(-ticks, tid);
    }
    std::sort(threads.begin(), threads.end());
    std::vector<pid_t> tids;
    for (const auto& t : threads) tids.push_back(t.second);
    return tids;
  }

  pid_t caller_;
  std::vector<pid_t> companions_;
  cpu_set_t allowed_;
  std::vector<int> cpus_;
};

// --- serve: SimulationServer over HTTP ----------------------------------------

/// The server with two service workers and one client connection.  The
/// untraced system serves through SimulationServer::start(); the traced
/// one puts its own HttpServer in front of the same handle() so the
/// route handler's time can be told apart from the HTTP round trip.
class ServeSystem {
 public:
  explicit ServeSystem(bool traced) {
    serve::SimulationServer::Options options;
    options.service_threads = 2;
    server_ = std::make_unique<serve::SimulationServer>(options);
    uint16_t port = 0;
    if (traced) {
      http_ = std::make_unique<serve::HttpServer>(
          serve::HttpServer::Options{},
          [this](const serve::HttpRequest& request) { return traced_handle(request); });
      http_->start();
      port = http_->port();
    } else {
      server_->start();
      port = server_->port();
    }
    const std::vector<pid_t> before = thread_ids();
    client_ = std::make_unique<serve::HttpClient>("127.0.0.1", port);
    // Once it has answered, the thread serving this connection exists;
    // it is the one thread that appeared since connecting.
    (void)client_->get("/");
    for (pid_t tid : thread_ids()) {
      if (std::find(before.begin(), before.end(), tid) == before.end()) {
        connection_threads_.push_back(tid);
      }
    }
  }

  /// Threads that run only while the client waits for a response.
  [[nodiscard]] const std::vector<pid_t>& connection_threads() const {
    return connection_threads_;
  }

  serve::HttpResponse request(std::string_view span_name, const std::string& method,
                              const std::string& target, const std::string& body = {},
                              const std::string& content_type = "application/json") {
    ScopedSpan span(span_name);
    parent_.store(span.id(), std::memory_order_release);
    job_.store(t_current_job, std::memory_order_release);
    return client_->request(method, target, body, content_type);
  }

  [[nodiscard]] serve::ImageCache& cache() { return server_->cache(); }

 private:
  serve::HttpResponse traced_handle(const serve::HttpRequest& request) {
    const std::string_view path = request.path();
    const char* name = path == "/v1/images"              ? "serve.upload_handle"
                       : path == "/v1/jobs"              ? "serve.handle_post_job"
                       : path.rfind("/v1/jobs/", 0) == 0 ? "serve.handle_get_job"
                                                         : "serve.handle_other";
    ScopedSpan span(name, parent_.load(std::memory_order_acquire),
                    job_.load(std::memory_order_acquire));
    return server_->handle(request);
  }

  // Declaration order is teardown order reversed: the client closes
  // first, then the front end stops, then the server drains its jobs.
  std::unique_ptr<serve::SimulationServer> server_;
  std::unique_ptr<serve::HttpServer> http_;
  std::unique_ptr<serve::HttpClient> client_;
  std::atomic<int64_t> parent_{-1};  // the client span of the request in flight
  std::atomic<uint64_t> job_{0};
  std::vector<pid_t> connection_threads_;
};

bool same_numbers(const json::JsonValue* array, const std::vector<double>& expected) {
  if (array == nullptr || !array->is_array() || array->as_array().size() != expected.size()) {
    return false;
  }
  for (std::size_t i = 0; i < expected.size(); ++i) {
    if (array->as_array()[i].as_double() != expected[i]) return false;
  }
  return true;
}

/// One client job: upload the program (POST /v1/images), submit it
/// (POST /v1/jobs), poll GET /v1/jobs/{id} until done, check the result.
void serve_job(ServeSystem& sys, const Program& p, uint64_t job_id, Report& rep) {
  ScopedSpan job_span("bench.serve_job", -1, job_id);
  JobRecord job = rep.begin(job_id, p);
  try {
    const Clock::time_point up0 = Clock::now();
    const serve::HttpResponse up =
        sys.request("serve.http.post_image", "POST",
                    "/v1/images?format=" + std::string(serve::image_format_name(p.format())),
                    p.source, "text/plain");
    const double upload_ms = ms_since(up0);
    if (up.status != 200 && up.status != 201) {
      rep.fail(job, "upload " + std::to_string(up.status) + ": " + up.body);
      return;
    }
    job.upload_ms = upload_ms;
    const std::string image = json::parse_json(up.body).get_string("id", "");

    const std::string body = "{\"image\": " + json::quote(image) + ", \"engine\": " +
                             json::quote(sim::engine_kind_name(p.kind())) +
                             ", \"max_steps\": " + std::to_string(kMaxSteps) + "}";
    const Clock::time_point t0 = Clock::now();
    const serve::HttpResponse posted = sys.request("serve.http.post_job", "POST", "/v1/jobs", body);
    if (posted.status != 202) {
      rep.fail(job, "submit " + std::to_string(posted.status) + ": " + posted.body);
      return;
    }
    const std::string target =
        "/v1/jobs/" + std::to_string(json::parse_json(posted.body).get_uint64("job", 0));
    json::JsonValue doc;
    for (;;) {
      const serve::HttpResponse got = sys.request("serve.http.get_job", "GET", target);
      ++rep.http_gets;
      if (got.status != 200) {
        rep.fail(job, "poll " + std::to_string(got.status) + ": " + got.body);
        return;
      }
      doc = json::parse_json(got.body);
      if (doc.get_string("state", "") == "done") break;
      if (ms_since(t0) > kJobTimeoutMs) {
        (void)sys.request("serve.http.delete_job", "DELETE", target);
        rep.fail(job, p.name + ": timed out");
        return;
      }
    }
    const double latency_ms = ms_since(t0);

    if (doc.get_string("outcome", "") != "completed") {
      rep.fail(job, p.name + ": outcome " + doc.get_string("outcome", "?"));
      return;
    }
    const json::JsonValue* stats = doc.find("stats");
    const Golden& g = p.golden;
    if (doc.get_string("state_digest", "") != g.digest || stats == nullptr ||
        stats->get_uint64("instructions", 0) != g.instructions ||
        !same_numbers(doc.find("registers"), g.registers) || doc.find("pc") == nullptr ||
        doc.find("pc")->as_double() != g.pc) {
      rep.fail(job, p.name + ": result differs from the golden reference", /*mismatch=*/true);
      return;
    }
    rep.complete(job, latency_ms, g.instructions);
  } catch (const std::exception& e) {
    rep.fail(job, p.name + ": " + e.what());
  }
}

// --- service: SimulationService in process -------------------------------------

/// Replays the engine calls a service job makes — make_engine, run_stats,
/// state() — under spans; returns their summed duration in µs.
double replay_engine(sim::EngineKind kind, const sim::EngineImage& image) {
  const std::string k(sim::engine_kind_name(kind));
  const double t0 = now_us();
  std::unique_ptr<sim::Engine> engine;
  {
    ScopedSpan span("sim.make_engine." + k);
    sim::EngineOptions options;
    options.pipeline.max_cycles = kMaxSteps;
    engine = sim::make_engine(kind, image, options);
  }
  {
    ScopedSpan span("sim.run_stats." + k);
    const sim::SimStats stats = engine->run_stats({kMaxSteps});
    span.set_work(static_cast<double>(sim::is_cycle_accurate(kind) ? stats.cycles
                                                                   : stats.instructions));
  }
  {
    ScopedSpan span("sim.state." + k);
    (void)engine->state();
  }
  return now_us() - t0;
}

/// One blocking service job: submit, wait, compare the whole MachineState
/// and instruction count with the golden reference.  Traced, it also
/// records the queue wait (submit until a worker picks the job up) and
/// the submit-to-resolve time, for service_overhead().
void service_job(sim::SimulationService& service, serve::ImageCache& cache, const Program& p,
                 uint64_t job_id, Report& rep, Ledger* ledger) {
  ScopedSpan job_span("sim.service.job", -1, job_id);
  JobRecord job = rep.begin(job_id, p);
  try {
    const Clock::time_point up0 = Clock::now();
    const std::string id = cache.put(p.format(), p.source).id;
    std::optional<sim::EngineImage> image = cache.get(id);
    job.upload_ms = ms_since(up0);
    if (!image) {
      rep.fail(job, p.name + ": image evicted");
      return;
    }
    sim::SimulationService::Job request;
    request.image = *image;
    request.kind = p.kind();
    request.run.max_steps = kMaxSteps;

    const Clock::time_point t0 = Clock::now();
    const double submit_us = now_us();
    const sim::JobHandle handle = service.submit(std::move(request));
    if (ledger != nullptr) {
      while (!handle.started()) std::this_thread::yield();
      const double started_us = now_us();
      handle.wait();
      ledger->samples["sim.service.queue_wait_us"].push_back(started_us - submit_us);
      ledger->samples["sim.service.job_us." + p.name].push_back(now_us() - submit_us);
    }
    const sim::JobResult& result = handle.result();
    const double latency_ms = ms_since(t0);
    if (result.outcome != sim::JobOutcome::kCompleted) {
      rep.fail(job, p.name + ": outcome " + std::string(sim::job_outcome_name(result.outcome)) + " " +
               result.error);
      return;
    }
    if (!(result.run.state == p.golden.state) ||
        result.run.stats.instructions != p.golden.instructions) {
      rep.fail(job, p.name + ": result differs from the golden reference", /*mismatch=*/true);
      return;
    }
    rep.complete(job, latency_ms, result.run.stats.instructions);
  } catch (const std::exception& e) {
    rep.fail(job, p.name + ": " + e.what());
  }
}

/// The service's own cost per job: submit-to-resolve minus the median of
/// the engine calls replayed for the job's program after the loop.
void service_overhead(const std::vector<const Program*>& programs, serve::ImageCache& cache,
                      Ledger& ledger) {
  for (const Program* p : programs) {
    const auto it = ledger.samples.find("sim.service.job_us." + p->name);
    if (it == ledger.samples.end()) continue;
    const std::optional<sim::EngineImage> image = cache.get(cache.put(p->format(), p->source).id);
    std::vector<double> engine_us;
    for (int i = 0; i < kReplayReps; ++i) engine_us.push_back(replay_engine(p->kind(), *image));
    std::sort(engine_us.begin(), engine_us.end());
    const double median = engine_us[engine_us.size() / 2];
    for (double us : it->second) ledger.samples["sim.service.overhead_us"].push_back(us - median);
    ledger.samples.erase(it);
  }
}

// --- paper_eval: the hardware framework -----------------------------------------

/// One evaluation.  ART-9: translate the RV32 source (software framework)
/// then HardwareFramework::evaluate on one technology; rv32: assemble and
/// run the PicoRV32 baseline cycle model.  The translate/assemble step is
/// the workload's image latency, the rest its job latency.
void paper_job(const std::array<core::HardwareFramework, 2>& frameworks, const Program& p,
               int tech, uint64_t job_id, Report& rep) {
  ScopedSpan job_span("bench.paper_job", -1, job_id);
  JobRecord job = rep.begin(job_id, p, tech);
  try {
    const Golden& g = p.golden;
    const Clock::time_point up0 = Clock::now();
    if (p.rv32) {
      rv32::Rv32Program program;
      {
        ScopedSpan span("rv32.assemble");
        program = rv32::assemble_rv32(p.source);
      }
      job.upload_ms = ms_since(up0);
      const Clock::time_point t0 = Clock::now();
      ScopedSpan span("rv32.baseline_run");
      const auto engine = sim::make_engine(sim::EngineKind::kRv32, program);
      rv32::PicoRv32CycleModel pico;
      engine->set_observer([&](const sim::Retired& r) { pico.observe(r.to_rv32()); });
      const sim::SimStats stats = engine->run_stats({kMaxSteps});
      const double latency_ms = ms_since(t0);
      if (stats.halt != sim::HaltReason::kHalted || pico.cycles() != g.pico_cycles ||
          stats.instructions != g.instructions) {
        rep.fail(job, p.name + ": baseline cycles differ from the reference", /*mismatch=*/true);
        return;
      }
      rep.complete(job, latency_ms, stats.instructions);
      return;
    }
    isa::Program program;
    {
      ScopedSpan span("xlat.translate");
      program = xlat::SoftwareFramework().translate_source(p.source).program;
    }
    job.upload_ms = ms_since(up0);
    const Clock::time_point t0 = Clock::now();
    core::EvaluationResult r;
    {
      ScopedSpan span("core.evaluate");
      r = frameworks[static_cast<std::size_t>(tech)].evaluate(program, p.iterations);
    }
    const double latency_ms = ms_since(t0);
    if (r.sim.cycles != g.pipeline_cycles || r.sim.instructions != g.instructions ||
        r.estimate.dmips_per_watt != g.dmips_per_watt[static_cast<std::size_t>(tech)]) {
      rep.fail(job, p.name + ": cycles or DMIPS/W differ from the reference", /*mismatch=*/true);
      return;
    }
    rep.complete(job, latency_ms, r.sim.instructions);
  } catch (const std::exception& e) {
    rep.fail(job, p.name + ": " + e.what());
  }
}

// --- workloads ----------------------------------------------------------------

/// One job of the measured loop: a program and, for paper_eval, the
/// technology index.
struct Slot {
  const Program* program = nullptr;
  int tech = 0;
};

class Workload {
 public:
  virtual ~Workload() = default;

  /// Builds the system under test, uploads images and runs one warm-up
  /// pass over every slot.  The caller times it.
  virtual void setup(Report& warmup) = 0;
  virtual void teardown() = 0;

  /// The measured closed loop over `jobs`.
  virtual void run(const std::vector<Slot>& jobs, Report& rep, Ledger* ledger) = 0;

  /// Up to `limit` distinct programs of the measured loop, in job order.
  [[nodiscard]] std::vector<const Program*> loop_programs(std::size_t limit) const {
    std::vector<const Program*> out;
    for (const Slot& s : jobs) {
      if (out.size() == limit) break;
      if (std::find(out.begin(), out.end(), s.program) == out.end()) out.push_back(s.program);
    }
    return out;
  }

  std::vector<std::unique_ptr<Program>> programs;  // every input program
  std::vector<Slot> jobs;                          // the measured loop, in order
  std::vector<Slot> warmup;                        // one pass over every slot
  bool serve_path = false;                         // jobs go through SimulationServer
  bool service_path = false;                       // jobs go through SimulationService
};

/// Appends `cycles` cycles of `cycle`, each shuffled by `rng`.
void add_cycles(std::vector<Slot>& out, std::vector<Slot> cycle, std::size_t cycles,
                std::mt19937_64& rng) {
  for (std::size_t c = 0; c < cycles; ++c) {
    std::shuffle(cycle.begin(), cycle.end(), rng);
    out.insert(out.end(), cycle.begin(), cycle.end());
  }
}

/// Slot cycles for a run of `seconds`: a fixed job count, `jobs_per_s`
/// jobs per second asked for, rounded up to whole cycles so every slot
/// carries the same weight.  The count never depends on how fast the
/// jobs run.
std::size_t cycles_for(double seconds, double jobs_per_s, std::size_t cycle_len) {
  const double jobs = std::max(1.0, seconds * jobs_per_s);
  return static_cast<std::size_t>(std::ceil(jobs / static_cast<double>(cycle_len)));
}

class ServeWorkload : public Workload {
 public:
  ServeWorkload() { serve_path = true; }

  void setup(Report& warm) override {
    system_ = std::make_unique<ServeSystem>(/*traced=*/false);
    for (const Slot& s : warmup) serve_job(*system_, *s.program, 0, warm);
  }
  void teardown() override { system_.reset(); }

  void run(const std::vector<Slot>& loop, Report& rep, Ledger* ledger) override {
    // The traced loop runs on a fresh, traced front end (set up untimed).
    std::unique_ptr<ServeSystem> traced;
    if (ledger != nullptr) {
      teardown();
      traced = std::make_unique<ServeSystem>(/*traced=*/true);
      Report ignored;
      for (const Slot& s : warmup) serve_job(*traced, *s.program, 0, ignored);
    }
    ServeSystem& sys = traced ? *traced : *system_;
    const serve::ImageCache::Stats before = sys.cache().stats();
    {
      const CpuRotation rotation(sys.connection_threads());
      for (std::size_t i = 0; i < loop.size(); ++i) {
        if (i % warmup.size() == 0) rotation.move(i / warmup.size());
        serve_job(sys, *loop[i].program, i + 1, rep);
      }
    }
    if (ledger != nullptr) {
      const serve::ImageCache::Stats after = sys.cache().stats();
      const double hits = static_cast<double>(after.hits - before.hits);
      const double misses = static_cast<double>(after.misses - before.misses);
      ledger->counters["serve.image_cache.hit_ratio"] = hits / std::max(1.0, hits + misses);
      ledger->counters["serve.image_cache.evictions"] =
          static_cast<double>(after.evictions - before.evictions);
    }
  }

 private:
  std::unique_ptr<ServeSystem> system_;
};

/// serve_paper: the 5-slot paper-program cycle x {rv32_translate on
/// superblock, rv32 on rv32_superblock}; images uploaded in set-up, so
/// every measured upload is a cache hit.
class ServePaper : public ServeWorkload {
 public:
  ServePaper(uint64_t seed, double seconds) {
    std::mt19937_64 rng(seed);
    std::vector<Slot> cycle;
    for (bool rv32 : {false, true}) {
      for (const Program* p : add_paper_cycle(programs, rv32)) cycle.push_back(Slot{p, 0});
    }
    warmup = cycle;
    add_cycles(jobs, cycle, cycles_for(seconds, 100.0, cycle.size()), rng);
  }
};

/// service_long: Dhrystone with ITERS raised to 2000, alternating ART-9
/// superblock and rv32 rv32_superblock, through SimulationService with one
/// worker and one submitter blocking on each job.  One job runs at a time:
/// two concurrent engine threads slow each other by a share that changes
/// with the host's load (up to 30% on the rv32 jobs), which this workload,
/// meant to show engine speed, should not measure; with a second, idle
/// worker the peak RSS depended on which worker woke for a job.
class ServiceLong : public Workload {
 public:
  static constexpr std::size_t kRotateJobs = 16;  // jobs between CPU rotations

  ServiceLong(double seconds) {
    service_path = true;
    for (bool rv32 : {false, true}) {
      auto p = std::make_unique<Program>();
      p->name = std::string("dhrystone") + std::to_string(kLongDhrystoneIters) + "." +
                (rv32 ? "rv32" : "art9");
      p->source = dhrystone_with_iters(kLongDhrystoneIters);
      p->rv32 = rv32;
      p->iterations = kLongDhrystoneIters;
      warmup.push_back(Slot{p.get(), 0});
      programs.push_back(std::move(p));
    }
    const std::size_t cycles = cycles_for(seconds, 150.0, warmup.size());
    for (std::size_t c = 0; c < cycles; ++c) jobs.insert(jobs.end(), warmup.begin(), warmup.end());
  }

  void setup(Report& warm) override {
    cache_ = std::make_unique<serve::ImageCache>();
    service_ = std::make_unique<sim::SimulationService>(1);
    for (const Slot& s : warmup) service_job(*service_, *cache_, *s.program, 0, warm, nullptr);
  }
  void teardown() override {
    service_.reset();
    cache_.reset();
  }

  void run(const std::vector<Slot>& loop, Report& rep, Ledger* ledger) override {
    const CpuRotation rotation;
    for (std::size_t i = 0; i < loop.size(); ++i) {
      if (i % kRotateJobs == 0) rotation.move(i / kRotateJobs);
      service_job(*service_, *cache_, *loop[i].program, i + 1, rep, ledger);
    }
    if (ledger != nullptr) service_overhead(loop_programs(programs.size()), *cache_, *ledger);
  }

 private:
  std::unique_ptr<serve::ImageCache> cache_;
  std::unique_ptr<sim::SimulationService> service_;
};

/// paper_eval: on one thread, the 5-slot translated paper-program cycle x
/// {cntfet32, fpga_binary_emulation} through HardwareFramework::evaluate,
/// plus the same cycle as the rv32 PicoRV32 baseline.
class PaperEval : public Workload {
 public:
  PaperEval(uint64_t seed, double seconds) {
    std::mt19937_64 rng(seed);
    std::vector<Slot> cycle;
    for (bool rv32 : {false, true}) {
      for (const Program* p : add_paper_cycle(programs, rv32)) {
        for (int tech = 0; tech < (rv32 ? 1 : 2); ++tech) cycle.push_back(Slot{p, tech});
      }
    }
    warmup = cycle;
    add_cycles(jobs, cycle, cycles_for(seconds, 300.0, cycle.size()), rng);
  }

  void setup(Report& warm) override {
    const CpuRotation rotation;
    rotation.move(setups_++);
    frameworks_ = std::make_unique<std::array<core::HardwareFramework, 2>>(
        std::array<core::HardwareFramework, 2>{
            core::HardwareFramework({}, technologies()[0]),
            core::HardwareFramework({}, technologies()[1])});
    for (const Slot& s : warmup) paper_job(*frameworks_, *s.program, s.tech, 0, warm);
  }
  void teardown() override { frameworks_.reset(); }

  void run(const std::vector<Slot>& loop, Report& rep, Ledger*) override {
    // The one evaluating thread moves to the next CPU every slot cycle.
    const CpuRotation rotation;
    uint64_t job_id = 1;
    for (std::size_t i = 0; i < loop.size(); ++i) {
      if (i % warmup.size() == 0) rotation.move(i / warmup.size());
      paper_job(*frameworks_, *loop[i].program, loop[i].tech, job_id++, rep);
    }
  }

 private:
  std::unique_ptr<std::array<core::HardwareFramework, 2>> frameworks_;
  std::size_t setups_ = 0;
};

// --- the traced layer replay -----------------------------------------------------

/// Replays one program through every layer's public functions under
/// spans: assemble / translate / decode / superblock plan, the engine
/// calls on superblock or rv32_superblock (and pipeline for ART-9),
/// the digest and snapshot codec, and the hardware framework.
void replay_program(const Program& p, uint64_t job_id, Ledger& ledger, Report& checks) {
  ScopedSpan root("bench.replay", -1, job_id);
  const std::string isa = p.isa();
  rv32::Rv32Program rp;
  {
    ScopedSpan span("rv32.assemble");
    rp = rv32::assemble_rv32(p.source);
  }
  sim::EngineImage image;
  xlat::TranslationResult translated;
  if (p.rv32) {
    ScopedSpan span("rv32.decode");
    image = rv32::decode(rp);
  } else {
    {
      ScopedSpan span("xlat.translate");
      translated = xlat::SoftwareFramework().translate(rp);
    }
    std::shared_ptr<const sim::DecodedImage> decoded;
    {
      ScopedSpan span("sim.decode");
      decoded = sim::decode(translated.program);
    }
    ledger.counters["sim.decode_rows"] += static_cast<double>(decoded->rows());
    ledger.counters["sim.decode_program_rows"] +=
        static_cast<double>(translated.program.code.size());
    {
      ScopedSpan span("sim.superblock_plan");
      (void)decoded->superblocks();
    }
    image = decoded;
  }

  const std::string k(sim::engine_kind_name(p.kind()));
  sim::EngineOptions options;
  const auto engine = [&] {
    ScopedSpan span("sim.make_engine." + k);
    return sim::make_engine(p.kind(), image, options);
  }();
  {
    ScopedSpan span("sim.run_stats." + k);
    span.set_work(static_cast<double>(engine->run_stats({kMaxSteps}).instructions));
  }
  const sim::MachineState state = [&] {
    ScopedSpan span("sim.state." + k);
    return engine->state();
  }();
  std::vector<uint8_t> blob;
  {
    ScopedSpan digest("serve.digest." + isa);
    {
      ScopedSpan span("sim.snapshot.serialize." + isa);
      blob = sim::serialize_snapshot(state);
    }
    const std::string hex = serve::hex64(serve::fnv1a_64(blob.data(), blob.size()));
    if (hex != p.golden.digest) checks.mismatch(p.name + ": replay digest differs");
  }
  ledger.counters["sim.snapshot.bytes." + isa] = static_cast<double>(blob.size());
  {
    ScopedSpan span("sim.snapshot.deserialize." + isa);
    if (!(sim::deserialize_snapshot(blob) == state)) {
      checks.mismatch(p.name + ": snapshot round trip differs");
    }
  }
  if (p.rv32) return;

  (void)replay_engine(sim::EngineKind::kPipeline, image);
  {
    ScopedSpan span("core.evaluate");
    (void)core::HardwareFramework({}, technologies()[0]).evaluate(translated.program,
                                                                 p.iterations);
  }
  sim::SimStats stats;
  {
    ScopedSpan span("sim.pipeline.run");
    stats = sim::PipelineSimulator(translated.program).run();
    span.set_work(static_cast<double>(stats.cycles));
  }
  ledger.counters["sim.pipeline.cycles"] += static_cast<double>(stats.cycles);
  ledger.counters["sim.pipeline.instructions"] += static_cast<double>(stats.instructions);
  const tech::Art9Design design = tech::build_art9_design({});
  for (const tech::Technology& t : technologies()) {
    {
      ScopedSpan span("tech.analyze");
      (void)tech::GateLevelAnalyzer().analyze(design, t);
    }
    ScopedSpan span("tech.estimate");
    (void)tech::PerformanceEstimator().estimate(design, t, stats.cycles / p.iterations);
  }
}

// --- output ------------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string num_array(const std::vector<double>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += num(values[i]);
  }
  return out + "]";
}

std::string string_array(const std::vector<std::string>& values) {
  std::string out = "[";
  for (std::size_t i = 0; i < values.size(); ++i) {
    if (i != 0) out += ",";
    out += json::quote(values[i]);
  }
  return out + "]";
}

// --- main --------------------------------------------------------------------

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 1.0;
  bool trace = false;
  std::string out;
};

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") a.workload = value;
    else if (key == "--seed") a.seed = std::stoull(value);
    else if (key == "--seconds") a.seconds = std::stod(value);
    else if (key == "--trace") a.trace = value == "1";
    else if (key == "--out") a.out = value;
    else throw std::invalid_argument("unknown argument " + key);
  }
  if (a.workload.empty() || a.out.empty() || a.seconds <= 0.0) {
    throw std::invalid_argument(
        "usage: perfbench_loadgen --workload <name> --seed <n> --seconds <s> --trace <0|1> "
        "--out <file>");
  }
  return a;
}

std::unique_ptr<Workload> make_workload(const Args& a) {
  if (a.workload == "serve_paper") return std::make_unique<ServePaper>(a.seed, a.seconds);
  if (a.workload == "service_long") return std::make_unique<ServiceLong>(a.seconds);
  if (a.workload == "paper_eval") return std::make_unique<PaperEval>(a.seed, a.seconds);
  throw std::invalid_argument("unknown workload " + a.workload);
}

/// The paper's Dhrystone and Table III figures beside the simulated ones.
std::string paper_figures(const Workload& w) {
  static const std::map<std::string, std::pair<double, double>> kTable3 = {
      {"bubble-sort", {2432, 9227}}, {"gemm", {10748, 11290}},
      {"sobel", {7822, 18250}},      {"dhrystone", {134200, 186607}}};
  std::string out = "[";
  auto row = [&](const std::string& what, double paper, double simulated) {
    if (out.size() > 1) out += ",";
    out += "{\"what\":" + json::quote(what) + ",\"paper\":" + num(paper) +
           ",\"simulated\":" + num(simulated) + "}";
  };
  for (const auto& p : w.programs) {
    const std::string base = p->name.substr(0, p->name.rfind('.'));
    const auto it = kTable3.find(base);
    if (it == kTable3.end()) continue;
    if (p->rv32) {
      row(base + " PicoRV32 cycles", it->second.second, static_cast<double>(p->golden.pico_cycles));
      continue;
    }
    row(base + " ART-9 cycles", it->second.first, static_cast<double>(p->golden.pipeline_cycles));
    if (base == "dhrystone") {
      row("dhrystone DMIPS/W cntfet32", 3.06e6, p->golden.dmips_per_watt[0]);
      row("dhrystone DMIPS/W fpga_binary_emulation", 57.8, p->golden.dmips_per_watt[1]);
    }
  }
  return out + "]";
}

int run_main(const Args& args) {
  std::unique_ptr<Workload> w = make_workload(args);
  const bool paper = args.workload == "paper_eval";
  for (std::size_t i = 0; i < w->programs.size(); ++i) {
    w->programs[i]->id = static_cast<int>(i);
  }

  // 1. Golden references (untimed, before any set-up).  Only service jobs
  //    compare whole states, so other programs drop theirs (an rv32 state
  //    holds 1 MiB of RAM) unless the traced probes may run them.
  const std::vector<const Program*> replay = w->loop_programs(kReplayPrograms);
  for (const auto& p : w->programs) {
    compute_golden(*p);
    if (paper) compute_paper_golden(*p);
    if (!w->service_path && std::find(replay.begin(), replay.end(), p.get()) == replay.end()) {
      p->golden.state = sim::MachineState{};
    }
  }

  // 2. Set-ups; the last one stays up for the measured loop.
  std::vector<double> setup_s;
  Report warm;
  for (int i = 0; i < kSetups; ++i) {
    if (i != 0) w->teardown();
    const Clock::time_point t0 = Clock::now();
    w->setup(warm);
    setup_s.push_back(ms_since(t0) / 1e3);
  }

  // 3. The measured loop, untraced.
  Report rep;
  const double rss0_kb = proc_status_kb("VmRSS");
  const Clock::time_point t0 = Clock::now();
  w->run(w->jobs, rep, nullptr);
  rep.measure_s = ms_since(t0) / 1e3;
  const double retained_kb = proc_status_kb("VmRSS") - rss0_kb;
  const double peak_rss_kb = proc_status_kb("VmHWM");

  // 4. The traced run: the same loop with spans, then the layer replay
  //    and the serve / service probes over the distinct programs.
  Tracer tracer;
  Ledger ledger;
  Report traced, checks;
  if (args.trace) {
    g_tracer = &tracer;
    const Clock::time_point t1 = Clock::now();
    w->run(w->jobs, traced, &ledger);
    ledger.counters["trace.traced_loop_s"] = ms_since(t1) / 1e3;
    ledger.counters["trace.untraced_loop_s"] = rep.measure_s;
    w->teardown();

    uint64_t job_id = 1'000'000;
    for (int rep_i = 0; rep_i < kReplayReps; ++rep_i) {
      for (const Program* p : replay) replay_program(*p, job_id++, ledger, checks);
    }
    if (!w->serve_path) {
      ServeSystem probe(/*traced=*/true);
      for (const Program* p : replay) {
        for (int j = 0; j < kProbeJobs; ++j) serve_job(probe, *p, job_id++, checks);
      }
      const serve::ImageCache::Stats s = probe.cache().stats();
      ledger.counters["serve.image_cache.hit_ratio"] =
          static_cast<double>(s.hits) / std::max<double>(1.0, static_cast<double>(s.hits + s.misses));
      ledger.counters["serve.image_cache.evictions"] = static_cast<double>(s.evictions);
    }
    if (!w->service_path) {
      serve::ImageCache cache;
      sim::SimulationService service(2);
      for (const Program* p : replay) {
        for (int j = 0; j < kProbeJobs; ++j) {
          service_job(service, cache, *p, job_id++, checks, &ledger);
        }
      }
      service_overhead(replay, cache, ledger);
    }
    g_tracer = nullptr;
    const uint64_t gets = w->serve_path ? traced.http_gets : checks.http_gets;
    const uint64_t served = w->serve_path ? traced.completed : checks.completed;
    ledger.counters["serve.polls_per_job"] =
        static_cast<double>(gets) / std::max<double>(1.0, static_cast<double>(served));
    ledger.counters["serve.poll_done_ratio"] =
        static_cast<double>(served) / std::max<double>(1.0, static_cast<double>(gets));
    ledger.counters["serve.retained_kb_per_job"] =
        retained_kb / std::max<double>(1.0, static_cast<double>(rep.completed));
  }
  w->teardown();

  // 5. Write the report.
  const bool setup_ok = warm.failed == 0 && traced.failed == 0 && checks.failed == 0;
  std::vector<std::string> failures = rep.failures;
  for (const Report* r : {&warm, &traced, &checks}) {
    failures.insert(failures.end(), r->failures.begin(), r->failures.end());
  }
  std::string out = "{";
  out += "\"workload\":" + json::quote(args.workload);
  out += ",\"host\":{\"nproc\":" + std::to_string(std::thread::hardware_concurrency()) +
         ",\"compiler\":" + json::quote(PERFBENCH_COMPILER) +
         ",\"build_type\":" + json::quote(PERFBENCH_BUILD_TYPE) +
         ",\"seed\":" + std::to_string(args.seed) + "}";
  out += ",\"attempted\":" + std::to_string(rep.attempted);
  out += ",\"completed\":" + std::to_string(rep.completed);
  out += ",\"failed\":" + std::to_string(rep.failed);
  out += ",\"mismatched\":" + std::to_string(rep.mismatched);
  out += ",\"checks_ok\":" + std::string(setup_ok ? "true" : "false");
  out += ",\"failures\":" + string_array(failures);
  out += ",\"setup_s\":" + num_array(setup_s);
  out += ",\"peak_rss_kb\":" + num(peak_rss_kb);
  out += ",\"cycle_jobs\":" + std::to_string(w->warmup.size());
  std::sort(rep.jobs.begin(), rep.jobs.end(),
            [](const JobRecord& a, const JobRecord& b) { return a.index < b.index; });
  out += ",\"jobs\":[";
  for (std::size_t i = 0; i < rep.jobs.size(); ++i) {
    const JobRecord& j = rep.jobs[i];
    out += (i == 0 ? "[" : ",[") + std::to_string(j.index) + "," + (j.rv32 ? "1" : "0") + "," +
           (j.ok ? "1" : "0") + "," + num(j.start_s) + "," + num(j.end_s) + "," +
           num(j.latency_ms) + "," + num(j.upload_ms) + "," + std::to_string(j.insts) + "," +
           std::to_string(j.group) + "]";
  }
  out += "]";
  out += ",\"paper\":" + (paper ? paper_figures(*w) : std::string("[]"));
  if (args.trace) {
    out += ",\"counters\":{";
    bool first = true;
    for (const auto& [name, value] : ledger.counters) {
      out += (first ? "" : ",") + json::quote(name) + ":" + num(value);
      first = false;
    }
    out += "},\"samples\":{";
    first = true;
    for (const auto& [name, values] : ledger.samples) {
      out += (first ? "" : ",") + json::quote(name) + ":" + num_array(values);
      first = false;
    }
    out += "},\"spans\":[";
    first = true;
    for (const Span& s : tracer.spans()) {
      out += (first ? "" : ",");
      out += "[" + json::quote(s.name) + "," + std::to_string(s.parent) + "," +
             std::to_string(s.job) + "," + num(s.start_us) + "," + num(s.end_us) + "," +
             num(s.n) + "]";
      first = false;
    }
    out += "]";
  }
  out += "}\n";
  std::FILE* f = std::fopen(args.out.c_str(), "w");
  if (f == nullptr || std::fputs(out.c_str(), f) < 0 || std::fclose(f) != 0) {
    std::fprintf(stderr, "perfbench_loadgen: cannot write %s\n", args.out.c_str());
    return 1;
  }
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run_main(perfbench::parse_args(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_loadgen: %s\n", e.what());
    return 1;
  }
}
