#include "fleet_session.h"

#include <filesystem>
#include <mutex>
#include <utility>

#include "common/obs/metrics.h"
#include "pipeline/accuracy.h"
#include "pipeline/deployment.h"
#include "pipeline/features.h"
#include "pipeline/inference.h"
#include "pipeline/ingestion.h"
#include "pipeline/tracking.h"
#include "pipeline/training.h"
#include "pipeline/validation.h"
#include "telemetry/emitter.h"
#include "telemetry/series_block.h"

namespace perfbench {

using namespace seagull;

namespace {

const char* const kModules[] = {"ingestion", "validation", "features",
                                "training",  "deployment", "inference",
                                "accuracy",  "tracking"};

uint64_t SplitMix(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// Digest of one region's gated containers. Run records (wall clock)
/// and incidents (the first run of a region writes a one-time schema
/// incident) are excluded, as in the fleet-scale bench.
uint64_t DigestRegion(DocStore* docs, const std::string& region) {
  uint64_t h = kFnvOffset;
  for (const char* container :
       {kPredictionsContainer, kAccuracyContainer, kModelRegistryContainer}) {
    h = FoldFnv(h, container);
    for (const auto& doc :
         docs->GetContainer(container)->ReadPartition(region)) {
      h = FoldFnv(h, doc.id);
      h = FoldFnv(h, doc.body.Dump());
    }
  }
  return h;
}

}  // namespace

/// Module wall times of traced passes, recorded by the decorator.
class ModuleLog {
 public:
  void Record(const std::string& module, double ms) {
    std::lock_guard<std::mutex> lock(mu_);
    times_[module].push_back(ms);
  }
  std::map<std::string, std::vector<double>> Take() {
    std::lock_guard<std::mutex> lock(mu_);
    return std::move(times_);
  }

 private:
  std::mutex mu_;
  std::map<std::string, std::vector<double>> times_;
};

namespace {

/// Timing decorator: forwards to the wrapped module and records its
/// wall time under the module's name.
class TimedModule : public PipelineModule {
 public:
  TimedModule(std::unique_ptr<PipelineModule> inner, ModuleLog* log)
      : inner_(std::move(inner)), log_(log) {}

  std::string name() const override { return inner_->name(); }

  Status Run(PipelineContext* ctx) override {
    const int64_t t0 = NowNs();
    Status status = inner_->Run(ctx);
    log_->Record(inner_->name(), static_cast<double>(NowNs() - t0) / 1e6);
    return status;
  }

 private:
  std::unique_ptr<PipelineModule> inner_;
  ModuleLog* log_;
};

/// `Pipeline::Standard()`'s module chain with every module decorated.
Pipeline TracedPipeline(ModuleLog* log) {
  std::vector<std::unique_ptr<PipelineModule>> modules;
  modules.push_back(std::make_unique<DataIngestionModule>());
  modules.push_back(std::make_unique<DataValidationModule>());
  modules.push_back(std::make_unique<FeatureExtractionModule>());
  modules.push_back(std::make_unique<ModelTrainingModule>());
  modules.push_back(std::make_unique<ModelDeploymentModule>());
  modules.push_back(std::make_unique<InferenceModule>());
  modules.push_back(std::make_unique<AccuracyEvaluationModule>());
  modules.push_back(std::make_unique<ModelTrackingModule>());
  Pipeline pipeline;
  for (auto& module : modules) {
    pipeline.Add(std::make_unique<TimedModule>(std::move(module), log));
  }
  return pipeline;
}

}  // namespace

FleetSession::FleetSession(std::string lake_dir, uint64_t seed, int regions,
                           int jobs)
    : lake_dir_(std::move(lake_dir)),
      seed_(seed),
      regions_(regions),
      jobs_(jobs) {}

std::string FleetSession::RegionName(int i) const {
  return "region-" + std::to_string(i);
}

Fleet FleetSession::MakeRegion(int i) const {
  RegionConfig config;
  config.name = RegionName(i);
  config.num_servers = kRegionServers;
  config.weeks = static_cast<int>(kWeek) + 1;
  config.seed = SplitMix(seed_ * 1315423911ULL + static_cast<uint64_t>(i));
  return Fleet::Generate(config);
}

int64_t FleetSession::servers() const {
  return static_cast<int64_t>(regions_) * kRegionServers;
}

Status FleetSession::Setup() {
  if (lake_ == nullptr) {
    SEAGULL_ASSIGN_OR_RETURN(LakeStore lake, LakeStore::Open(lake_dir_));
    lake_ = std::make_unique<LakeStore>(std::move(lake));
  }
  fleets_.clear();
  for (int i = 0; i < regions_; ++i) {
    fleets_.push_back(MakeRegion(i));
    const Fleet& fleet = fleets_.back();
    SEAGULL_RETURN_NOT_OK(lake_->PutStreamed(
        LakeStore::TelemetryKey(RegionName(i), kWeek),
        [&](std::ostream& out) {
          return ExtractWeekBlockTo(
              fleet, kWeek, [&](std::string_view bytes) -> Status {
                out.write(bytes.data(),
                          static_cast<std::streamsize>(bytes.size()));
                if (!out) return Status::IOError("staging write failed");
                return Status::OK();
              });
        }));
  }
  // Weekly passes read through mmap'd blobs behind the lake cache, the
  // configuration of a long-running operator process. The cache is
  // sharded 8 ways and a region's blob is ~95 MB, so each shard must
  // hold a few of them.
  lake_->ConfigureMmap(true);
  lake_->ConfigureCache(int64_t{4} << 30);
  DocStore docs;
  double wall_s = 0.0;
  int64_t failed = 0;
  RunOnce(jobs_, nullptr, &docs, &wall_s, &failed);
  if (failed != 0) {
    return Status::Internal("setup pass failed on " +
                            std::to_string(failed) + " regions");
  }
  return Status::OK();
}

std::vector<ServerTelemetry> ServingTails(int regions) {
  std::vector<ServerTelemetry> tails;
  for (int r = 0; r < regions; ++r) {
    RegionConfig config;
    config.name = "serve-" + std::to_string(r);
    config.num_servers = kRegionServers;
    config.weeks = static_cast<int>(kWeek) + 1;
    config.seed = 0x5e4a11ULL + static_cast<uint64_t>(r);
    const Fleet fleet = Fleet::Generate(config);
    for (const auto& profile : fleet.servers()) {
      ServerTelemetry st;
      st.server_id = profile.server_id;
      st.load = fleet.ObservedLoad(profile, kWeek * kMinutesPerWeek,
                                   (kWeek + 1) * kMinutesPerWeek);
      // A server that did not report for a day of the week
      // (short-lived, retired) has no tail to serve: SSA refuses to fit
      // it, so every query on it would fail for lack of data.
      if (st.load.CountPresent() < kMinutesPerDay / kServerIntervalMinutes) {
        continue;
      }
      tails.push_back(std::move(st));
    }
  }
  return tails;
}

std::vector<uint64_t> FleetSession::RunOnce(int jobs, ModuleLog* log,
                                            DocStore* docs, double* wall_s,
                                            int64_t* failed,
                                            std::vector<double>* region_ms) {
  std::vector<FleetJob> fleet_jobs;
  for (int i = 0; i < regions_; ++i) {
    fleet_jobs.push_back({RegionName(i), kWeek});
  }
  FleetOptions options;
  options.jobs = jobs;
  FleetRunner::PipelineFactory factory = &Pipeline::Standard;
  if (log != nullptr) factory = [log] { return TracedPipeline(log); };
  FleetRunner runner(lake_.get(), docs, options, factory);
  PipelineContext config;
  config.model_name = "persistent_prev_day";
  const int64_t t0 = NowNs();
  FleetRunResult result = runner.Run(fleet_jobs, config);
  *wall_s = SecondsSince(t0);
  *failed = result.FailureCount();
  if (region_ms != nullptr) {
    for (const auto& run : result.runs) {
      region_ms->push_back(run.report.TotalMillis());
    }
  }
  std::vector<uint64_t> digests;
  for (const FleetJob& job : fleet_jobs) {
    digests.push_back(DigestRegion(docs, job.region));
  }
  return digests;
}

void FleetSession::RunPasses(int passes, bool traced, Ledger* ledger,
                             FleetOutcome* outcome) {
  ModuleLog log;
  std::map<std::string, std::vector<double>> module_ms;
  std::vector<double> servers_per_s, utilization, region_ms;
  MetricsRegistry& registry = MetricsRegistry::Global();
  Counter* hits =
      registry.GetCounter("seagull.lake.cache_events", {{"event", "hit"}});
  Counter* misses =
      registry.GetCounter("seagull.lake.cache_events", {{"event", "miss"}});
  const int64_t hits0 = hits->Value(), misses0 = misses->Value();
  int64_t correct = 0, long_lived = 0;
  for (int pass = 0; pass < passes; ++pass) {
    DocStore docs;
    double wall_s = 0.0;
    int64_t failed = 0;
    if (traced) log.Take();
    outcome->pass_digests.push_back(RunOnce(
        jobs_, traced ? &log : nullptr, &docs, &wall_s, &failed,
        &region_ms));
    ++outcome->passes;
    outcome->region_runs += regions_;
    outcome->failed_runs += failed;
    servers_per_s.push_back(static_cast<double>(servers()) / wall_s);
    if (pass == 0) {
      for (int i = 0; i < regions_; ++i) {
        for (const auto& doc : docs.GetContainer(kAccuracyContainer)
                                   ->ReadPartition(RegionName(i))) {
          if (!doc.body["long_lived"].AsBool()) continue;
          ++long_lived;
          if (doc.body["last_window_correct"].AsBool()) ++correct;
        }
      }
    }
    if (traced) {
      double busy_ms = 0.0;
      for (auto& [module, times] : log.Take()) {
        for (double ms : times) busy_ms += ms;
        auto& all = module_ms[module];
        all.insert(all.end(), times.begin(), times.end());
      }
      utilization.push_back(busy_ms / (wall_s * 1e3 * jobs_));
    }
  }
  ledger->Set("fleet_servers_per_s", Median(servers_per_s), "1/s");
  ledger->Set("ll_correct_frac",
              long_lived > 0 ? static_cast<double>(correct) /
                                   static_cast<double>(long_lived)
                             : 0.0,
              "ratio");
  if (!traced) return;
  for (const char* module : kModules) {
    ledger->Set(std::string("pipeline.") + module + "_ms",
                Median(module_ms[module]), "ms");
  }
  ledger->Set("pipeline.region_ms.p50", Median(region_ms), "ms");
  ledger->Set("pipeline.region_ms.max", Max(region_ms), "ms");
  ledger->Set("parallel.utilization", Median(utilization), "ratio");
  const double lookups = static_cast<double>(hits->Value() - hits0 +
                                             misses->Value() - misses0);
  ledger->Set("store.cache_hit_ratio",
              lookups > 0 ? static_cast<double>(hits->Value() - hits0) /
                                lookups
                          : 0.0,
              "ratio");
}

int64_t FleetSession::CheckAgainstSequential(const FleetOutcome& outcome) {
  DocStore docs;
  double wall_s = 0.0;
  int64_t failed = 0;
  const std::vector<uint64_t> reference =
      RunOnce(1, nullptr, &docs, &wall_s, &failed);
  int64_t mismatches = failed;
  for (const auto& digests : outcome.pass_digests) {
    for (size_t i = 0; i < digests.size(); ++i) {
      if (i >= reference.size() || digests[i] != reference[i]) ++mismatches;
    }
  }
  return mismatches;
}

Status FleetSession::ProbeLayers(Ledger* ledger) {
  std::vector<double> generate_ms, encode_ms, put_ms, get_us, decode_us;
  int64_t staged_bytes = 0;
  ExtractionOptions extraction;
  const MinuteStamp from =
      (kWeek + 1 - extraction.history_weeks) * kMinutesPerWeek;
  const MinuteStamp to = (kWeek + 1) * kMinutesPerWeek;
  for (int i = 0; i < regions_; ++i) {
    const Fleet& fleet = fleets_[static_cast<size_t>(i)];
    const std::string key = LakeStore::TelemetryKey(RegionName(i), kWeek);

    int64_t t0 = NowNs();
    int64_t generated = 0;
    for (const auto& profile : fleet.servers()) {
      generated += fleet.ObservedLoad(profile, from, to).CountPresent();
    }
    const double gen = static_cast<double>(NowNs() - t0) / 1e6;
    if (generated == 0) {
      return Status::Internal("no telemetry generated for " + RegionName(i));
    }

    int64_t bytes = 0;
    t0 = NowNs();
    SEAGULL_RETURN_NOT_OK(ExtractWeekBlockTo(
        fleet, kWeek, [&](std::string_view chunk) -> Status {
          bytes += static_cast<int64_t>(chunk.size());
          return Status::OK();
        }));
    const double extract = static_cast<double>(NowNs() - t0) / 1e6;

    // The put goes to a new key, as staging does into a fresh lake.
    const std::string probe_key =
        LakeStore::TelemetryKey(RegionName(i) + "-probe", kWeek);
    t0 = NowNs();
    SEAGULL_RETURN_NOT_OK(lake_->PutStreamed(probe_key, [&](std::ostream& out) {
      return ExtractWeekBlockTo(
          fleet, kWeek, [&](std::string_view chunk) -> Status {
            out.write(chunk.data(), static_cast<std::streamsize>(chunk.size()));
            return out ? Status::OK() : Status::IOError("probe write failed");
          });
    }));
    const double staged = static_cast<double>(NowNs() - t0) / 1e6;
    SEAGULL_RETURN_NOT_OK(lake_->Delete(probe_key));
    generate_ms.push_back(gen);
    encode_ms.push_back(extract - gen);
    put_ms.push_back(staged - extract);
    staged_bytes += bytes;

    // Re-read as the ingestion module does: once to fill the cache,
    // then timed reads and decodes.
    SEAGULL_RETURN_NOT_OK(lake_->GetBlob(key).status());
    for (int rep = 0; rep < 5; ++rep) {
      t0 = NowNs();
      SEAGULL_ASSIGN_OR_RETURN(BlobRef blob, lake_->GetBlob(key));
      get_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      t0 = NowNs();
      SEAGULL_ASSIGN_OR_RETURN(SeriesBlockCursor cursor,
                               SeriesBlockCursor::Open(std::move(blob)));
      SeriesBlockServerView view;
      double sum = 0.0;
      int64_t walked = 0;
      while (cursor.Next(&view)) {
        for (int64_t j = 0; j < view.sample_count(); ++j) {
          sum += view.values[j] + static_cast<double>(view.timestamps[j]);
        }
        walked += view.sample_count();
      }
      decode_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
      if (walked != cursor.info().total_samples || !std::isfinite(sum)) {
        return Status::Internal("decoded sample count differs from the "
                                "block header in " + RegionName(i));
      }
    }
  }
  ledger->Set("telemetry.generate_ms", Median(generate_ms), "ms");
  ledger->Set("telemetry.encode_ms", Median(encode_ms), "ms");
  ledger->Set("store.put_ms", Median(put_ms), "ms");
  ledger->Set("telemetry.staged_bytes",
              static_cast<double>(staged_bytes) / regions_, "bytes");
  ledger->Set("store.get_blob_us", Median(get_us), "us");
  ledger->Set("telemetry.decode_us", Median(decode_us), "us");
  return Status::OK();
}

void FleetSession::Cleanup() {
  lake_.reset();
  std::error_code ec;
  std::filesystem::remove_all(lake_dir_, ec);
}

}  // namespace perfbench
