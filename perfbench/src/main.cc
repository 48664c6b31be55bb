/// \file main.cc
/// \brief The repository benchmark: one run of one workload.
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             --lake-dir DIR --digests FILE
///   perfbench --record-digest --workload NAME --seed N --lake-dir DIR
///
/// Every workload is a week in the life of one Seagull deployment:
/// regions are synthesized and staged into a lake, a weekly
/// `FleetRunner` pass deploys each region's champion, and a
/// `ServingEngine` bootstrapped on a fixed fleet's week answers an
/// open-loop request stream while its ticks run on their own thread. The
/// workloads differ in which side carries the load (see NOTES.md).
///
/// Progress goes to stderr; the last stdout line is one JSON object
/// with `correct`, `attempted`, `failed`, every measured metric and the
/// host record. perfbench/run.py turns it into the result line.

#include <sys/types.h>
#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common.h"
#include "common/json.h"
#include "common/obs/metrics.h"
#include "common/strings.h"
#include "fleet_session.h"
#include "serving_session.h"

using namespace perfbench;
using seagull::Json;

namespace {

/// Time of one region's weekly pipeline on one job, which sizes the
/// passes to their share of the run; measured on a 4-thread AMD EPYC
/// host.
constexpr double kNominalRegionPassS = 0.16;

struct Workload {
  const char* name;
  int fleet_regions;   ///< 1000-server regions staged for the passes
  double fleet_share;  ///< share of `--seconds` the passes are sized for
};

/// The workloads: the same deployment, with the load on the serving side
/// or on the weekly side.
constexpr Workload kWorkloads[] = {{"serve-read", 1, 0.1},
                                   {"fleet-week", 2, 0.5}};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool record_digest = false;
  std::string lake_dir;
  std::string digests;
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--record-digest") {
      args->record_digest = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--lake-dir") {
      args->lake_dir = value;
    } else if (flag == "--digests") {
      args->digests = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->lake_dir.empty() &&
         args->seconds > 0;
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string Hex(uint64_t v) {
  return seagull::StringPrintf("%016llx", static_cast<unsigned long long>(v));
}

/// The digest recorded for `seed`, or "" when none is.
std::string RecordedDigest(const std::string& path, uint64_t seed) {
  std::ifstream in(path);
  if (!in) return "";
  std::stringstream text;
  text << in.rdbuf();
  auto doc = Json::Parse(text.str());
  if (!doc.ok()) return "";
  const Json& entry = (*doc)[std::to_string(seed)];
  return entry.is_string() ? entry.AsString() : "";
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --lake-dir DIR [--digests FILE] "
                 "[--record-digest]\n");
    return 2;
  }
  const int hw = static_cast<int>(std::thread::hardware_concurrency());
  Workload workload{};
  bool found = false;
  for (const Workload& w : kWorkloads) {
    if (args.workload == w.name) {
      workload = w;
      found = true;
    }
  }
  if (!found) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  // FleetRunner jobs + the participating caller, and request workers +
  // the tick thread, each stay within the host's threads (at most 4, at
  // least 2).
  const int threads = std::clamp(hw > 0 ? hw : 4, 2, 4) - 1;
  const std::string lake_dir =
      args.lake_dir + "/lake-" + std::to_string(getpid());

  // Set-up, three times: the engine's Bootstrap + first Tick + warm-up,
  // then synthesis + staging into a fresh lake + the deploying pass. The
  // last one stays. (Staging over an earlier lake's files instead of
  // into an empty one runs about twice as slow on overlay storage.)
  std::vector<double> setup_s, setup_rss_mb;
  std::unique_ptr<FleetSession> fleet;
  std::unique_ptr<ServingSession> serving;
  for (int rep = 0; rep < (args.record_digest ? 1 : 3); ++rep) {
    serving.reset();
    if (fleet) fleet->Cleanup();
    fleet.reset();
    seagull::TrimMallocArenas();
    seagull::ResetPeakRss();
    const int64_t t0 = NowNs();
    // The engine first, so its state is laid out before staging and the
    // passes fragment the heap (that costs serving ~15% per request).
    serving = std::make_unique<ServingSession>(
        args.seed, ServingTails(kServedRegions), threads);
    seagull::Status st = serving->Setup();
    fleet = std::make_unique<FleetSession>(lake_dir, args.seed,
                                           workload.fleet_regions, threads);
    if (st.ok()) st = fleet->Setup();
    if (!st.ok()) {
      std::fprintf(stderr, "set-up failed: %s\n", st.ToString().c_str());
      fleet->Cleanup();
      return 1;
    }
    setup_s.push_back(SecondsSince(t0));
    setup_rss_mb.push_back(
        static_cast<double>(seagull::ReadPeakRssBytes()) / 1048576.0);
    std::fprintf(stderr, "set-up %d: %.3f s, peak RSS %.1f MB\n", rep + 1,
                 setup_s.back(), setup_rss_mb.back());
  }

  if (args.record_digest) {
    auto digest = serving->ReplayDigest(0);
    fleet->Cleanup();
    if (!digest.ok()) {
      std::fprintf(stderr, "replay failed: %s\n",
                   digest.status().ToString().c_str());
      return 1;
    }
    std::printf("%s\n", Hex(*digest).c_str());
    return 0;
  }

  // Peak RSS of a set-up, which holds the engine's state and runs one
  // full pass of each side (warm-up burst, deploying pass); the timed
  // window adds the benchmark's own request and response records.
  Ledger ledger;
  ledger.Set("setup_s", Median(setup_s), "s");
  ledger.Set("peak_rss_mb", Median(setup_rss_mb), "MB");

  // Measured window: the serving session, then the weekly passes.
  ServingOutcome serve_out;
  FleetOutcome fleet_out;
  // The passes are a fixed amount of work, sized for their share of the
  // run at a nominal pass rate, so that the operation count of a seed
  // does not depend on the host.
  const double serve_s = args.seconds * (1.0 - workload.fleet_share);
  const int waves = (workload.fleet_regions + threads - 1) / threads;
  const int passes = std::max<int>(
      4, static_cast<int>(std::llround(args.seconds * workload.fleet_share /
                                       (waves * kNominalRegionPassS))));
  serving->Run(serve_s, args.trace, &ledger, &serve_out);
  serving->Release();
  if (!args.trace) {
    fleet->RunPasses(passes, false, &ledger, &fleet_out);
  } else {
    Ledger untraced;
    fleet->RunPasses(passes / 2, false, &untraced, &fleet_out);
    fleet->RunPasses(passes / 2, true, &ledger, &fleet_out);
    const double plain =
        untraced.entries().at("fleet_servers_per_s").first;
    const double traced = ledger.entries().at("fleet_servers_per_s").first;
    ledger.Set("trace.fleet_overhead_frac",
               traced > 0 ? plain / traced - 1.0 : 0.0, "ratio");
  }

  // Correctness gates.
  const int64_t fleet_mismatches = fleet->CheckAgainstSequential(fleet_out);
  std::string digest_source = "recorded";
  std::string expected =
      args.digests.empty() ? ""
                           : RecordedDigest(args.digests, args.seed);
  auto digest = serving->ReplayDigest(0);
  bool digest_ok = digest.ok();
  if (digest_ok && expected.empty()) {
    // No recorded digest for this seed: the replay must at least be
    // reproducible with the refit fan-out on a pool.
    digest_source = "pool-width self-check";
    auto pooled = serving->ReplayDigest(2);
    digest_ok = pooled.ok() && *pooled == *digest;
  } else if (digest_ok) {
    digest_ok = Hex(*digest) == expected;
  }
  bool probes_ok = true;
  if (args.trace) {
    seagull::Status st = fleet->ProbeLayers(&ledger);
    if (!st.ok()) {
      std::fprintf(stderr, "layer probe failed: %s\n", st.ToString().c_str());
      probes_ok = false;
    }
  }
  fleet->Cleanup();

  const int64_t attempted = serve_out.attempted + fleet_out.region_runs;
  const int64_t failed = serve_out.failed + fleet_out.failed_runs;
  // The success share: its complement, the failed share, is 0 on
  // workloads without failures, and an end-to-end metric must not be.
  ledger.Set("ok_frac",
             attempted > 0 ? static_cast<double>(attempted - failed) /
                                 static_cast<double>(attempted)
                           : 0.0,
             "ratio");
  const bool malformed = [&] {
    for (const auto& [key, count] : serve_out.failures) {
      if (key.find("Malformed") != std::string::npos) return true;
    }
    return false;
  }();
  const bool correct = digest_ok && probes_ok && fleet_mismatches == 0 &&
                       fleet_out.failed_runs == 0 && !malformed &&
                       serve_out.generator_ok;

  Json info = Json::MakeObject();
  info["workload"] = workload.name;
  info["seed"] = static_cast<int64_t>(args.seed);
  info["seconds"] = args.seconds;
  info["trace"] = args.trace;
  info["hardware_threads"] = hw;
  info["cpu_model"] = CpuModel();
  info["build_type"] = PERFBENCH_BUILD_TYPE;
  info["compiler"] = PERFBENCH_COMPILER;
  info["fleet_servers"] = fleet->servers();
  info["fleet_jobs"] = threads;
  info["fleet_passes"] = fleet_out.passes;
  info["fleet_digest_mismatches"] = fleet_mismatches;
  info["serving_workers"] = threads;
  info["replay_digest"] = digest.ok() ? Hex(*digest) : digest.status().ToString();
  info["replay_digest_expected"] = expected;
  info["replay_digest_source"] = digest_source;
  info["replay_digest_ok"] = digest_ok;
  info["generator_valid"] = serve_out.generator_ok;
  info["gen_late_p99_us"] = serve_out.gen_late_p99_us;
  info["shed"] = serve_out.shed;
  Json failures = Json::MakeObject();
  for (const auto& [key, count] : serve_out.failures) failures[key] = count;
  info["failures_by_verb_code"] = std::move(failures);
  Json notes = Json::MakeArray();
  for (const auto& note : serve_out.step_notes) notes.Append(Json(note));
  info["rate_steps"] = std::move(notes);
  Json setups = Json::MakeArray();
  for (double s : setup_s) setups.Append(Json(s));
  info["setup_runs_s"] = std::move(setups);

  Json metrics = Json::MakeObject();
  for (const auto& [name, entry] : ledger.entries()) {
    Json m = Json::MakeObject();
    m["value"] = entry.first;
    m["unit"] = entry.second;
    metrics[name] = std::move(m);
  }
  Json out = Json::MakeObject();
  out["correct"] = correct;
  out["attempted"] = attempted;
  out["failed"] = failed;
  out["metrics"] = std::move(metrics);
  out["info"] = std::move(info);
  std::printf("%s\n", out.Dump().c_str());
  return 0;
}
