/// \file serving_session.h
/// \brief The client side of a benchmark run: a real open-loop load
/// generator against a long-lived `ServingEngine` whose ticks run on
/// their own thread, concurrently with the queries.
///
/// Requests are drawn by `BuildSchedule` (the load test's verb mix,
/// payloads and Poisson arrival offsets, all from the seed); the
/// simulated 5-minute epochs of the schedule are compressed to
/// `kSchedTickMs` of wall time, which gives every request a wall-clock
/// due time. The first free worker thread to see a request's due time
/// pass sends it; every latency is timed from the due time, so a stall
/// also charges the requests queued behind it.

#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "serving/engine.h"
#include "serving/loadgen.h"

namespace perfbench {

/// Wall time of one simulated schedule epoch.
inline constexpr double kSchedTickMs = 100.0;
/// Servers per batch predict.
inline constexpr int64_t kBatchSize = 16;
/// Schedule epochs the correctness gate replays.
inline constexpr int64_t kGateTicks = 3;

/// Verb mix of the schedule (the load test's bench mix); the remainder,
/// 17%, is ingest.
inline constexpr double kPredictShare = 0.5;
inline constexpr double kLlWindowShare = 0.2;
inline constexpr double kBatchShare = 0.08;
inline constexpr double kSubscribeShare = 0.05;
/// 1000-server regions the engine serves (see `ServingTails`).
inline constexpr int kServedRegions = 3;
/// Wall time between the starts of two ticks.
inline constexpr double kTickPeriodMs = 100.0;
/// Offered rate (1/s) of the reference step, at which the latency
/// metrics are reported: low enough that the request workers seldom
/// all sit behind batch predicts, so the p99s show the service time and
/// the ticks running beside the queries.
inline constexpr double kReferenceRate = 1000.0;
/// Fixed offered rates (1/s), ascending, that the goodput climb walks
/// above the reference rate (see `ServingSession::Run`).
inline constexpr double kLadder[] = {3000,  6000,  8000,  9500,  11000,
                                     12500, 14000, 15500, 17000, 19000};

/// Predict p99 limit for goodput (timed from the due time).
inline constexpr double kPredictP99LimitUs = 1000.0;
/// Shares of the serving time of the reference step and of each ladder
/// rung.
inline constexpr double kReferenceShare = 0.55;
inline constexpr double kRungShare = 0.04;
/// The goodput climb stops at a rung whose predict p99 exceeds the
/// limit by this factor.
inline constexpr double kLadderStopFactor = 3.0;
/// Generator lateness p99 above which a run's timings are invalid.
inline constexpr double kGeneratorLateLimitUs = 1000.0;

struct ServingOutcome {
  /// Requests of the reference schedule (both halves when traced).
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t shed = 0;  ///< never sent: an overloaded step ran out of time
  bool generator_ok = true;
  double gen_late_p99_us = 0.0;  ///< worst step
  /// "verb code" -> count of structured error responses.
  std::map<std::string, int64_t> failures;
  std::vector<std::string> step_notes;
};

class ServingSession {
 public:
  /// `workers` request threads (the calling thread included) send the
  /// requests.
  ServingSession(uint64_t seed, std::vector<seagull::ServerTelemetry> tails,
                 int workers);
  ~ServingSession();
  ServingSession(const ServingSession&) = delete;
  ServingSession& operator=(const ServingSession&) = delete;

  /// Builds the engine over the fleet-wide `persistent_prev_day`
  /// champion (the model the paper deploys, §5.3.2): `Bootstrap` +
  /// first `Tick`, then a short sequential warm-up burst and a flushing
  /// tick.
  seagull::Status Setup();

  /// Untraced: the reference step, then the goodput climb over the
  /// ladder, each rung on a fresh engine; fills the serving end-to-end
  /// metrics (predict_p50_us and freshness_p99_ms at the reference rate,
  /// goodput_rps). Traced: the reference rate only, split into an
  /// untraced and a traced half on the same schedule, the traced one on
  /// a fresh engine; fills the serving, json and forecast layer metrics,
  /// the per-verb p99s and the tracing overhead.
  void Run(double seconds, bool traced, Ledger* ledger,
           ServingOutcome* outcome);

  /// Destroys the engine. Refits run on the tick thread, so a session
  /// holds no threads outside `Run`.
  void Release();

  /// Correctness gate: replays the first `kGateTicks` schedule epochs
  /// of the reference step on a fresh engine, sequentially and under a
  /// frozen clock, and returns the load test's response digest.
  /// `refit_threads` > 0 replays with a refit pool of that width.
  seagull::Result<uint64_t> ReplayDigest(int refit_threads);

 private:
  struct Step;
  struct StepResult;

  seagull::LoadgenOptions StepOptions(double rate, int64_t ticks,
                                      uint64_t step_seed,
                                      seagull::MinuteStamp epoch_start) const;
  /// Seed of the reference step's schedule (ladder rungs add their
  /// index + 1).
  uint64_t RefSeed() const { return seed_ * 1000003ULL; }
  Step BuildStep(double rate, double seconds, uint64_t step_seed);
  StepResult RunStep(const Step& step, bool traced);
  /// The traced run's layer ledger, from its untraced half `plain` and
  /// its traced half `step`.
  void LayerMetrics(const Step& plain, const StepResult& plain_res,
                    const Step& step, const StepResult& res, Ledger* ledger);

  uint64_t seed_;
  int workers_;
  std::vector<seagull::ServerTelemetry> tails_;
  std::vector<std::string> ids_;
  std::unique_ptr<seagull::ServingEngine> engine_;
  /// Simulated minute the bootstrap tails end at, and the one the next
  /// step's ingest payloads start at.
  seagull::MinuteStamp tails_end_ = 0;
  seagull::MinuteStamp epoch_cursor_ = 0;
  /// Wall time (NowNs) at which each epoch was published.
  std::vector<int64_t> publish_ns_;
};

}  // namespace perfbench
