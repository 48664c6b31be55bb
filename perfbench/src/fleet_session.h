/// \file fleet_session.h
/// \brief The weekly fleet side of a benchmark run: regions synthesized
/// and staged as SGB1 blobs into a lake inside the checkout, then
/// repeated weekly `FleetRunner` passes over them.

#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "pipeline/fleet_runner.h"
#include "store/doc_store.h"
#include "store/lake_store.h"
#include "telemetry/fleet.h"

namespace perfbench {

class ModuleLog;

/// Servers per synthesized region (the fleet-scale bench's region size).
inline constexpr int kRegionServers = 1000;
/// Extraction week: four weeks of history (weeks 0-3) per blob, so the
/// accuracy module has its three evidence weeks before target week 4.
inline constexpr int64_t kWeek = 3;

/// Outcome of the timed passes, for the result line and the gate.
struct FleetOutcome {
  int64_t passes = 0;
  int64_t region_runs = 0;
  int64_t failed_runs = 0;
  /// Per-region digests of every timed pass, job order.
  std::vector<std::vector<uint64_t>> pass_digests;
};

/// The serving engine's fleet: `regions` production-mix regions drawn
/// from fixed seeds, as 7-day tails of the extraction week, for the
/// servers that reported on at least one of its days. The fleet is the
/// same for every benchmark seed (the seed draws the request schedule):
/// seeded fleets swung the mean request cost by ~7% from seed to seed.
std::vector<seagull::ServerTelemetry> ServingTails(int regions);

class FleetSession {
 public:
  /// `lake_dir` must lie inside the checkout; it is created on demand.
  /// `jobs` is the FleetRunner width of the set-up and timed passes.
  FleetSession(std::string lake_dir, uint64_t seed, int regions, int jobs);

  /// Synthesizes every region and streams its week blob into the lake
  /// (`ExtractWeekBlockTo` + `LakeStore::PutStreamed`), then runs one
  /// untimed warm-up pass that deploys each region's champion.
  seagull::Status Setup();

  int64_t servers() const;

  /// Runs `passes` full weekly passes, each on a fresh document store.
  /// Untraced passes run `Pipeline::Standard`; traced ones wrap every
  /// module in a timing decorator through the runner's pipeline
  /// factory. Writes
  /// fleet_servers_per_s and ll_correct_frac, and when traced the
  /// pipeline.* / parallel.* / store.cache_hit_ratio layer metrics.
  void RunPasses(int passes, bool traced, Ledger* ledger,
                 FleetOutcome* outcome);

  /// Correctness gate: a jobs=1 reference pass; every timed pass's
  /// per-region digests must equal it. Returns the mismatch count.
  int64_t CheckAgainstSequential(const FleetOutcome& outcome);

  /// Traced-run probes of single layers, timed from here: staging split
  /// into generate / encode / put, `LakeStore::GetBlob`, and
  /// `SeriesBlockCursor` open + walk.
  seagull::Status ProbeLayers(Ledger* ledger);

  /// Removes the lake directory.
  void Cleanup();

 private:
  std::string RegionName(int i) const;
  seagull::Fleet MakeRegion(int i) const;
  /// One weekly pass over every region into `docs`; returns the
  /// per-region digests. `log` (nullable) selects the traced pipeline.
  std::vector<uint64_t> RunOnce(int jobs, ModuleLog* log,
                                seagull::DocStore* docs, double* wall_s,
                                int64_t* failed,
                                std::vector<double>* region_ms = nullptr);

  std::string lake_dir_;
  uint64_t seed_;
  int regions_;
  int jobs_;
  std::unique_ptr<seagull::LakeStore> lake_;
  std::vector<seagull::Fleet> fleets_;
};

}  // namespace perfbench
