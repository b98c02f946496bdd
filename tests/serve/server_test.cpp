// SimulationServer: route-level protocol checks driven socketlessly
// through handle(), then the loopback e2e contract the ISSUE pins down —
// an HTTP-submitted job's result is bit-identical (canonical-snapshot
// digest) to a direct SimulationService run of the same image, the
// second upload of the same source is a cache hit, an admission-rejected
// request gets a structured error, and the metrics outcome counters sum
// to the jobs submitted.
#include "serve/server.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <iterator>
#include <string>
#include <thread>
#include <vector>

#include "core/benchmarks.hpp"
#include "isa/assembler.hpp"
#include "serve/json.hpp"
#include "sim/snapshot.hpp"

namespace art9::serve {
namespace {

constexpr const char* kSumProgram = R"(
    LIMM T1, 50
    LIMM T2, 0
  loop:
    ADD  T2, T1
    ADDI T1, -1
    MV   T3, T1
    COMP T3, T4
    BNE  T3, 0, loop
    HALT
)";

constexpr const char* kSpinProgram = "loop:\n  ADDI T1, 1\n  JAL T0, loop\n";

constexpr const char* kRv32Program = R"(
    li   a0, 64
    li   a1, -456
    sw   a1, 0(a0)
    lw   a2, 0(a0)
    ebreak
)";

HttpRequest make_request(std::string method, std::string target, std::string body = {}) {
  HttpRequest request;
  request.method = std::move(method);
  request.target = std::move(target);
  request.version = "HTTP/1.1";
  request.body = std::move(body);
  return request;
}

json::JsonValue body_of(const HttpResponse& response) { return json::parse_json(response.body); }

/// Polls GET /v1/jobs/{id} (through handle()) to the terminal state.
json::JsonValue await_job(SimulationServer& server, uint64_t id) {
  const std::string target = "/v1/jobs/" + std::to_string(id);
  for (int poll = 0; poll < 4000; ++poll) {
    const HttpResponse response = server.handle(make_request("GET", target));
    EXPECT_EQ(response.status, 200);
    json::JsonValue job = body_of(response);
    if (job.get_string("state", "") == "done") return job;
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  ADD_FAILURE() << "job " << id << " never resolved";
  return json::JsonValue();
}

TEST(OutcomeExitCode, MirrorsArt9Run) {
  EXPECT_EQ(outcome_exit_code(sim::JobOutcome::kCompleted), 0);
  EXPECT_EQ(outcome_exit_code(sim::JobOutcome::kTrapped), 3);
  EXPECT_EQ(outcome_exit_code(sim::JobOutcome::kBudgetExhausted), 4);
  EXPECT_EQ(outcome_exit_code(sim::JobOutcome::kDeadlineExceeded), 5);
  EXPECT_EQ(outcome_exit_code(sim::JobOutcome::kCancelled), 6);
  EXPECT_EQ(outcome_exit_code(sim::JobOutcome::kFaulted), 7);
}

TEST(SimulationServerRoutes, ProtocolErrorsAreStructured) {
  SimulationServer server;  // never start()ed: handle() needs no socket

  EXPECT_EQ(server.handle(make_request("GET", "/nope")).status, 404);
  EXPECT_EQ(server.handle(make_request("PUT", "/v1/images", "x")).status, 405);
  EXPECT_EQ(server.handle(make_request("POST", "/v1/metrics")).status, 405);
  EXPECT_EQ(server.handle(make_request("GET", "/")).status, 200);  // endpoint index

  // Image uploads: unknown format, empty body, assembler diagnostics.
  EXPECT_EQ(server.handle(make_request("POST", "/v1/images?format=elf", "x")).status, 400);
  EXPECT_EQ(server.handle(make_request("POST", "/v1/images")).status, 400);
  const HttpResponse bad_source =
      server.handle(make_request("POST", "/v1/images", "NOT_AN_OPCODE T1\n"));
  EXPECT_EQ(bad_source.status, 400);
  EXPECT_EQ(body_of(bad_source).get_string("error", ""), "bad_source");

  // Job submission: malformed JSON, missing/unknown image, bad engine.
  EXPECT_EQ(server.handle(make_request("POST", "/v1/jobs", "{oops")).status, 400);
  EXPECT_EQ(server.handle(make_request("POST", "/v1/jobs", "[1]")).status, 400);
  EXPECT_EQ(server.handle(make_request("POST", "/v1/jobs", "{}")).status, 400);
  const HttpResponse unknown_image = server.handle(
      make_request("POST", "/v1/jobs", "{\"image\": \"0123456789abcdef\"}"));
  EXPECT_EQ(unknown_image.status, 404);
  EXPECT_EQ(body_of(unknown_image).get_string("error", ""), "unknown_image");

  const std::string image =
      body_of(server.handle(make_request("POST", "/v1/images", kSumProgram)))
          .get_string("id", "");
  ASSERT_EQ(image.size(), 16u);
  // Unknown engine names, the retired packed kinds included.
  for (const char* engine : {"warp", "packed", "rv32_packed", "pipeline_packed"}) {
    const HttpResponse unknown_engine = server.handle(make_request(
        "POST", "/v1/jobs", "{\"image\": \"" + image + "\", \"engine\": \"" + engine + "\"}"));
    EXPECT_EQ(unknown_engine.status, 400) << engine;
    EXPECT_NE(body_of(unknown_engine).get_string("message", "").find("unknown engine"),
              std::string::npos)
        << engine;
  }
  // ISA mismatch: an ART-9 image on an rv32 engine.
  EXPECT_EQ(server.handle(make_request("POST", "/v1/jobs",
                                       "{\"image\": \"" + image + "\", \"engine\": \"rv32\"}"))
                .status,
            400);
  // Budget over the per-job cap.
  EXPECT_EQ(server.handle(make_request("POST", "/v1/jobs",
                                       "{\"image\": \"" + image +
                                           "\", \"max_steps\": 18446744073709551615}"))
                .status,
            400);

  // Job lookup: unknown and malformed ids.
  EXPECT_EQ(server.handle(make_request("GET", "/v1/jobs/999")).status, 404);
  EXPECT_EQ(server.handle(make_request("GET", "/v1/jobs/abc")).status, 404);
  EXPECT_EQ(server.handle(make_request("DELETE", "/v1/jobs/999")).status, 404);
}

TEST(SimulationServerRoutes, AdmissionRejectsAreStructuredAndCounted) {
  SimulationServer::Options options;
  options.service_threads = 1;
  options.max_queued_jobs = 1;
  options.max_job_steps = 1u << 20;
  SimulationServer server(options);

  const std::string spin =
      body_of(server.handle(make_request("POST", "/v1/images", kSpinProgram)))
          .get_string("id", "");

  // First job fills the whole queue allowance...
  const HttpResponse admitted = server.handle(make_request(
      "POST", "/v1/jobs",
      "{\"image\": \"" + spin + "\", \"max_steps\": 1000000, \"slice_steps\": 2000}"));
  ASSERT_EQ(admitted.status, 202);
  const uint64_t first = body_of(admitted).get_uint64("job", 0);

  // ...so the second is rejected NOW with a structured body — not queued.
  const HttpResponse rejected = server.handle(
      make_request("POST", "/v1/jobs", "{\"image\": \"" + spin + "\", \"max_steps\": 1000}"));
  EXPECT_EQ(rejected.status, 429);
  const json::JsonValue reject_body = body_of(rejected);
  EXPECT_EQ(reject_body.get_string("error", ""), "admission_queue_full");
  EXPECT_EQ(reject_body.get_uint64("max_queued_jobs", 0), 1u);
  EXPECT_FALSE(reject_body.get_string("message", "").empty());

  // Cancel the hog; once it resolves the queue allowance is released.
  EXPECT_EQ(server.handle(make_request("DELETE", "/v1/jobs/" + std::to_string(first))).status,
            202);
  (void)await_job(server, first);
  const HttpResponse after = server.handle(
      make_request("POST", "/v1/jobs", "{\"image\": \"" + spin + "\", \"max_steps\": 1000}"));
  EXPECT_EQ(after.status, 202);
  (void)await_job(server, body_of(after).get_uint64("job", 0));

  const json::JsonValue metrics = body_of(server.handle(make_request("GET", "/v1/metrics")));
  const json::JsonValue* admission = metrics.find("admission");
  ASSERT_NE(admission, nullptr);
  EXPECT_EQ(admission->get_uint64("admitted", 0), 2u);
  EXPECT_EQ(admission->get_uint64("rejected_queue_full", 0), 1u);
  EXPECT_EQ(admission->get_uint64("active_jobs", 1), 0u);
  EXPECT_EQ(admission->get_uint64("inflight_steps", 1), 0u);
}

TEST(SimulationServerRoutes, StepBudgetAdmissionIsIndependentOfQueueDepth) {
  SimulationServer::Options options;
  options.service_threads = 1;
  // One job-step cap plus 1000: the hog below holds all but 1000 steps
  // of it, with one job queued — far below the queue-depth limit.
  options.max_inflight_steps = options.max_job_steps + 1000;
  SimulationServer server(options);

  const std::string spin =
      body_of(server.handle(make_request("POST", "/v1/images", kSpinProgram)))
          .get_string("id", "");
  // A budget the spinner cannot exhaust before the next request: a short
  // one could resolve first and release its steps.
  const HttpResponse admitted = server.handle(make_request(
      "POST", "/v1/jobs",
      "{\"image\": \"" + spin + "\", \"max_steps\": " + std::to_string(options.max_job_steps) +
          ", \"slice_steps\": 1000}"));
  ASSERT_EQ(admitted.status, 202);

  const HttpResponse rejected = server.handle(
      make_request("POST", "/v1/jobs", "{\"image\": \"" + spin + "\", \"max_steps\": 2000}"));
  EXPECT_EQ(rejected.status, 429);
  EXPECT_EQ(body_of(rejected).get_string("error", ""), "admission_step_budget");
  EXPECT_EQ(body_of(rejected).get_uint64("max_inflight_steps", 0), options.max_inflight_steps);

  const uint64_t hog = body_of(admitted).get_uint64("job", 0);
  EXPECT_EQ(server.handle(make_request("DELETE", "/v1/jobs/" + std::to_string(hog))).status, 202);
  (void)await_job(server, hog);
}

TEST(SimulationServerRoutes, DeadlinePastTheClockRangeIsNoDeadline) {
  // submit time + 10^13 ms overflows the steady clock's nanosecond count;
  // the job must complete, not expire before it runs.
  SimulationServer server;
  const std::string image =
      body_of(server.handle(make_request("POST", "/v1/images", kSumProgram)))
          .get_string("id", "");
  const HttpResponse submitted = server.handle(make_request(
      "POST", "/v1/jobs", "{\"image\": \"" + image + "\", \"deadline_ms\": 10000000000000}"));
  ASSERT_EQ(submitted.status, 202);
  const json::JsonValue job = await_job(server, body_of(submitted).get_uint64("job", 0));
  EXPECT_EQ(job.get_string("outcome", ""), "completed");
  EXPECT_EQ(job.get_uint64("exit_code", 99), 0u);
}

TEST(SimulationServerRoutes, PaperProgramStateDigestsAreGolden) {
  // Literal state_digest values of the four paper programs, on both ISAs:
  // the rv32 source on rv32_superblock and its ART-9 translation on
  // superblock.  A change to how the digest is computed must keep them.
  struct Golden {
    const char* name;
    const char* rv32;
    const char* art9;
  };
  const Golden kGolden[] = {
      {"bubble-sort", "1f81167108d50da0", "60701e6a7892f14d"},
      {"gemm", "51307922ac7ab575", "9b0b643e09466b99"},
      {"sobel", "aef83f654e392e3f", "a4269ca47c959cd6"},
      {"dhrystone", "b5b451d93f5b5b58", "59f59ba5a6023410"},
  };
  SimulationServer server;
  const auto digest = [&](const char* format, const char* engine, const std::string& source) {
    const std::string image =
        body_of(server.handle(make_request("POST", std::string("/v1/images?format=") + format,
                                           source)))
            .get_string("id", "");
    const HttpResponse submitted = server.handle(make_request(
        "POST", "/v1/jobs",
        "{\"image\": \"" + image + "\", \"engine\": \"" + engine + "\"}"));
    EXPECT_EQ(submitted.status, 202) << format;
    const json::JsonValue job = await_job(server, body_of(submitted).get_uint64("job", 0));
    EXPECT_EQ(job.get_string("outcome", ""), "completed") << format;
    return job.get_string("state_digest", "");
  };
  const std::vector<const core::BenchmarkSources*> benchmarks = core::all_benchmarks();
  ASSERT_EQ(benchmarks.size(), std::size(kGolden));
  for (std::size_t i = 0; i < benchmarks.size(); ++i) {
    EXPECT_EQ(benchmarks[i]->name, kGolden[i].name);
    EXPECT_EQ(digest("rv32", "rv32_superblock", benchmarks[i]->rv32), kGolden[i].rv32)
        << kGolden[i].name;
    EXPECT_EQ(digest("rv32_translate", "superblock", benchmarks[i]->rv32), kGolden[i].art9)
        << kGolden[i].name;
  }
}

TEST(SimulationServerRoutes, FinishedJobBodyIsRenderedOnce) {
  SimulationServer server;
  const std::string image =
      body_of(server.handle(make_request("POST", "/v1/images", kSumProgram)))
          .get_string("id", "");
  const HttpResponse submitted =
      server.handle(make_request("POST", "/v1/jobs", "{\"image\": \"" + image + "\"}"));
  ASSERT_EQ(submitted.status, 202);
  const uint64_t id = body_of(submitted).get_uint64("job", 0);
  (void)await_job(server, id);

  // Every later GET, and a DELETE of the finished job, return the same bytes.
  const std::string target = "/v1/jobs/" + std::to_string(id);
  const HttpResponse first = server.handle(make_request("GET", target));
  const HttpResponse second = server.handle(make_request("GET", target));
  EXPECT_EQ(first.status, 200);
  EXPECT_EQ(second.body, first.body);
  const HttpResponse deleted = server.handle(make_request("DELETE", target));
  EXPECT_EQ(deleted.status, 202);
  EXPECT_EQ(deleted.body, first.body);
}

TEST(SimulationServerRoutes, RetryAndCheckpointFieldsAreIgnored) {
  // The server installs no fault plan, so checkpoints and retries could
  // never act: the fields are ignored like any unknown one.
  SimulationServer server;
  const std::string image =
      body_of(server.handle(make_request("POST", "/v1/images?format=rv32", kRv32Program)))
          .get_string("id", "");
  const auto run = [&](const std::string& extra) {
    const HttpResponse submitted = server.handle(
        make_request("POST", "/v1/jobs", "{\"image\": \"" + image + "\"" + extra + "}"));
    EXPECT_EQ(submitted.status, 202);
    return await_job(server, body_of(submitted).get_uint64("job", 0));
  };
  const json::JsonValue plain = run("");
  const json::JsonValue controlled =
      run(", \"checkpoint_every\": 1, \"retries\": 3, \"retry_backoff_ms\": 5");
  EXPECT_EQ(controlled.get_string("outcome", ""), "completed");
  EXPECT_EQ(controlled.get_string("state_digest", ""), plain.get_string("state_digest", "x"));
  for (const char* key : {"checkpoints", "corrupt_checkpoints", "retries", "resumed"}) {
    EXPECT_EQ(controlled.find(key), nullptr) << key;
  }
}

TEST(SimulationServerRoutes, OldestFinishedJobIsEvictedPastTheCap) {
  // One worker resolves jobs in submission order.  To finish cap + 1 of
  // them cheaply, each round parks a spinner on the worker, queues tiny
  // jobs behind it and cancels them all, the spinner last: a job
  // cancelled while queued never runs.  Rounds stay short because every
  // queued job holds a default MachineState.
  SimulationServer::Options options;
  options.service_threads = 1;
  SimulationServer server(options);
  const auto upload = [&](const char* source) {
    return body_of(server.handle(make_request("POST", "/v1/images", source))).get_string("id", "");
  };
  const auto target = [](uint64_t id) { return "/v1/jobs/" + std::to_string(id); };
  const std::string spin = upload(kSpinProgram);
  const std::string halt = upload("HALT\n");
  const auto submit = [&](const std::string& image) {
    const HttpResponse submitted = server.handle(make_request(
        "POST", "/v1/jobs", "{\"image\": \"" + image + "\", \"slice_steps\": 1000}"));
    EXPECT_EQ(submitted.status, 202);
    return body_of(submitted).get_uint64("job", 0);
  };

  constexpr std::size_t kRound = 128;
  std::vector<uint64_t> finished;  // in finishing order
  while (finished.size() <= SimulationServer::kMaxFinishedJobs) {
    std::vector<uint64_t> round{submit(spin)};
    while (round.size() < kRound &&
           finished.size() + round.size() <= SimulationServer::kMaxFinishedJobs) {
      round.push_back(submit(halt));
    }
    for (auto id = round.rbegin(); id != round.rend(); ++id) {
      ASSERT_EQ(server.handle(make_request("DELETE", target(*id))).status, 202);
    }
    EXPECT_EQ(await_job(server, round.back()).get_string("outcome", ""), "cancelled");
    finished.insert(finished.end(), round.begin(), round.end());
  }

  const HttpResponse evicted = server.handle(make_request("GET", target(finished.front())));
  EXPECT_EQ(evicted.status, 404);
  EXPECT_EQ(body_of(evicted).get_string("error", ""), "unknown_job");
  EXPECT_EQ(server.handle(make_request("GET", target(finished[1]))).status, 200);
  EXPECT_EQ(server.handle(make_request("GET", target(finished.back()))).status, 200);
}

TEST(SimulationServerE2E, LoopbackResultsBitIdenticalToDirectServiceRuns) {
  SimulationServer::Options options;
  options.service_threads = 2;
  SimulationServer server(options);
  server.start();
  ASSERT_NE(server.port(), 0);
  HttpClient client("127.0.0.1", server.port());

  // Upload: first is a pipeline run (201), the identical re-upload is a
  // content-hash hit (200) with the same id.
  const HttpResponse first_upload = client.post("/v1/images?format=art9", kSumProgram);
  ASSERT_EQ(first_upload.status, 201);
  const json::JsonValue first_body = body_of(first_upload);
  EXPECT_FALSE(first_body.find("cached")->as_bool());
  const std::string image = first_body.get_string("id", "");
  ASSERT_EQ(image.size(), 16u);

  const HttpResponse second_upload = client.post("/v1/images?format=art9", kSumProgram);
  EXPECT_EQ(second_upload.status, 200);
  EXPECT_TRUE(body_of(second_upload).find("cached")->as_bool());
  EXPECT_EQ(body_of(second_upload).get_string("id", ""), image);

  // The same program, engine and budget, run directly through the
  // service: the canonical snapshot digest is the bit-identity witness.
  sim::SimulationService direct(1);
  const sim::JobHandle direct_handle =
      direct.submit(sim::decode(isa::assemble(kSumProgram)), sim::EngineKind::kSuperblock,
                    sim::RunOptions{2000});
  const sim::JobResult& expected = direct_handle.result();
  ASSERT_EQ(expected.outcome, sim::JobOutcome::kCompleted);
  const std::vector<uint8_t> blob = sim::serialize_snapshot(expected.run.state);
  const std::string expected_digest = hex64(fnv1a_64(blob.data(), blob.size()));

  const HttpResponse submitted = client.post(
      "/v1/jobs",
      "{\"image\": \"" + image + "\", \"engine\": \"superblock\", \"max_steps\": 2000}");
  ASSERT_EQ(submitted.status, 202);
  const json::JsonValue job = await_job(server, body_of(submitted).get_uint64("job", 0));

  EXPECT_EQ(job.get_string("outcome", ""), "completed");
  EXPECT_EQ(job.get_uint64("exit_code", 99), 0u);
  EXPECT_EQ(job.get_string("state_digest", ""), expected_digest);
  const json::JsonValue* stats = job.find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_EQ(stats->get_uint64("instructions", 0), expected.run.stats.instructions);

  // Cancel path over HTTP: DELETE resolves the spinner as cancelled/6.
  const std::string spin =
      body_of(client.post("/v1/images?format=art9", kSpinProgram)).get_string("id", "");
  const HttpResponse spinning = client.post(
      "/v1/jobs", "{\"image\": \"" + spin + "\", \"slice_steps\": 2000}");
  ASSERT_EQ(spinning.status, 202);
  const uint64_t spin_id = body_of(spinning).get_uint64("job", 0);
  EXPECT_EQ(client.del("/v1/jobs/" + std::to_string(spin_id)).status, 202);
  const json::JsonValue cancelled = await_job(server, spin_id);
  EXPECT_EQ(cancelled.get_string("outcome", ""), "cancelled");
  EXPECT_EQ(cancelled.get_uint64("exit_code", 99), 6u);

  // A trapping program maps to trapped/3 with the trap text attached:
  // no HALT, so execution falls off the end into uninitialised TIM.
  const std::string trap =
      body_of(client.post("/v1/images?format=art9", "LIMM T1, 5\nADD T1, T1\n"))
          .get_string("id", "");
  const HttpResponse trap_submitted =
      client.post("/v1/jobs", "{\"image\": \"" + trap + "\"}");
  ASSERT_EQ(trap_submitted.status, 202);
  const json::JsonValue trapped =
      await_job(server, body_of(trap_submitted).get_uint64("job", 0));
  EXPECT_EQ(trapped.get_string("outcome", ""), "trapped");
  EXPECT_EQ(trapped.get_uint64("exit_code", 99), 3u);
  EXPECT_FALSE(trapped.get_string("error", "").empty());

  // Metrics reconcile: every submitted job resolved, and the outcome
  // counters sum exactly to the jobs submitted.
  const json::JsonValue metrics = body_of(client.get("/v1/metrics"));
  const json::JsonValue* jobs = metrics.find("jobs");
  ASSERT_NE(jobs, nullptr);
  EXPECT_EQ(jobs->get_uint64("submitted", 0), 3u);
  EXPECT_EQ(jobs->get_uint64("resolved", 0), 3u);
  const json::JsonValue* outcomes = metrics.find("outcomes");
  ASSERT_NE(outcomes, nullptr);
  uint64_t outcome_sum = 0;
  for (const auto& [name, count] : outcomes->as_object()) outcome_sum += count.as_uint64();
  EXPECT_EQ(outcome_sum, jobs->get_uint64("submitted", 0));
  const json::JsonValue* cache = metrics.find("cache");
  ASSERT_NE(cache, nullptr);
  EXPECT_EQ(cache->get_uint64("hits", 0), 1u);
  EXPECT_EQ(cache->get_uint64("misses", 0), 3u);

  server.stop();
}

TEST(SimulationServerE2E, Rv32AndTranslatedImagesRunTheirOwnEngines) {
  SimulationServer server;
  server.start();
  HttpClient client("127.0.0.1", server.port());

  // Native rv32: defaults to the rv32 engine, reports 32 x-registers.
  const json::JsonValue rv32_upload =
      body_of(client.post("/v1/images?format=rv32", kRv32Program));
  EXPECT_EQ(rv32_upload.get_string("isa", ""), "rv32");
  const HttpResponse rv32_submitted = client.post(
      "/v1/jobs", "{\"image\": \"" + rv32_upload.get_string("id", "") + "\"}");
  ASSERT_EQ(rv32_submitted.status, 202);
  const json::JsonValue rv32_job =
      await_job(server, body_of(rv32_submitted).get_uint64("job", 0));
  EXPECT_EQ(rv32_job.get_string("engine", ""), "rv32");
  EXPECT_EQ(rv32_job.get_string("outcome", ""), "completed");
  ASSERT_NE(rv32_job.find("registers"), nullptr);
  EXPECT_EQ(rv32_job.find("registers")->as_array().size(), 32u);

  // The same rv32 source through the translation framework is an ART-9
  // image (a different content id: the format tag is hashed too) and runs
  // the ART-9 kinds.
  const json::JsonValue xlat_upload =
      body_of(client.post("/v1/images?format=rv32_translate", kRv32Program));
  EXPECT_EQ(xlat_upload.get_string("isa", ""), "art9");
  EXPECT_NE(xlat_upload.get_string("id", ""), rv32_upload.get_string("id", ""));
  const HttpResponse xlat_submitted = client.post(
      "/v1/jobs", "{\"image\": \"" + xlat_upload.get_string("id", "") +
                      "\", \"engine\": \"pipeline\"}");
  ASSERT_EQ(xlat_submitted.status, 202);
  const json::JsonValue xlat_job =
      await_job(server, body_of(xlat_submitted).get_uint64("job", 0));
  EXPECT_EQ(xlat_job.get_string("outcome", ""), "completed");
  ASSERT_NE(xlat_job.find("registers"), nullptr);
  EXPECT_EQ(xlat_job.find("registers")->as_array().size(), 9u);

  server.stop();
}

TEST(ImageCache, LruEvictionAgainstTheByteBudget) {
  // Three distinct tiny programs against a budget that fits roughly one:
  // the cache evicts least-recently-used entries but never the entry a
  // put() just inserted, and get() of an evicted id misses cleanly.
  ImageCache cache(1);  // pathological budget: every insert overflows
  const ImageCache::Put a = cache.put(ImageFormat::kArt9Asm, "LIMM T1, 1\nHALT\n");
  EXPECT_FALSE(a.hit);
  EXPECT_TRUE(cache.get(a.id).has_value());  // just-inserted entry survives

  const ImageCache::Put b = cache.put(ImageFormat::kArt9Asm, "LIMM T1, 2\nHALT\n");
  EXPECT_FALSE(cache.get(a.id).has_value());  // evicted by b's insert
  EXPECT_TRUE(cache.get(b.id).has_value());

  const ImageCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.entries, 1u);
  EXPECT_GE(stats.evictions, 1u);
  EXPECT_EQ(stats.misses, 2u);

  // Re-uploading the evicted program is a rebuild (miss), not a hit.
  const ImageCache::Put again = cache.put(ImageFormat::kArt9Asm, "LIMM T1, 1\nHALT\n");
  EXPECT_FALSE(again.hit);
  EXPECT_EQ(again.id, a.id);  // content hash is stable
}

}  // namespace
}  // namespace art9::serve
