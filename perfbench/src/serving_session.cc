#include "serving_session.h"

#include <sys/prctl.h>

#include <atomic>
#include <cmath>
#include <cstdlib>
#include <exception>
#include <iterator>
#include <thread>
#include <unordered_map>
#include <utility>

#include "common/json.h"
#include "common/obs/clock.h"
#include "common/strings.h"
#include "forecast/batch.h"
#include "forecast/persistent.h"
#include "parallel/thread_pool.h"

namespace perfbench {

using namespace seagull;

namespace {

/// Schedule epochs of the setup's warm-up burst.
constexpr int64_t kWarmTicks = 3;
/// A failed request misses every latency limit.
constexpr double kMiss = 1e12;

/// Tighter sleeps for this thread: the default 50 us timer slack would
/// otherwise show up as generator lateness.
void TightenTimerSlack() { prctl(PR_SET_TIMERSLACK, 1UL, 0, 0, 0); }

/// Sleeps, then spins for the last 2 ms, until `deadline_ns` (NowNs
/// clock).
void WaitUntil(int64_t deadline_ns) {
  constexpr int64_t kSpinNs = 2'000'000;
  for (;;) {
    const int64_t remaining = deadline_ns - NowNs();
    if (remaining <= 0) return;
    if (remaining > kSpinNs) {
      std::this_thread::sleep_for(
          std::chrono::nanoseconds(remaining - kSpinNs));
    }
  }
}

/// Request workers spin through waits up to 20 ms, which at the
/// benchmark's rates is every wait: a virtual CPU that idles between
/// requests can take hundreds of microseconds to wake, which would be
/// charged to the next request as generator lateness.
constexpr int64_t kWorkerSpinNs = 20'000'000;

struct Record {
  int64_t free = 0;   ///< when its worker was last free (step-relative)
  int64_t start = 0;  ///< when it was sent
  int64_t end = 0;    ///< when the response was back
  int64_t epoch = -1;  ///< served epoch of a single predict
  int64_t bytes = 0;
  bool sent = false;
  bool ok = false;
  std::string code;  ///< status code of an error response
};

struct TickRecord {
  int64_t start = 0;  ///< step-relative
  int64_t end = 0;
  TickResult result;
};

/// Classifies a response without parsing it on the hot path: errors
/// render as {"code":C,"error":...,"ok":false} (sorted keys), every
/// success carries "ok":true, and epoch snapshots lead with "epoch".
void Classify(const std::string& response, Record* rec) {
  rec->bytes = static_cast<int64_t>(response.size());
  static const std::string kCode = "{\"code\":\"";
  if (response.compare(0, kCode.size(), kCode) == 0) {
    const size_t end = response.find('"', kCode.size());
    rec->code = response.substr(kCode.size(), end - kCode.size());
    return;
  }
  rec->ok = response.find("\"ok\":true") != std::string::npos;
  if (!rec->ok) rec->code = "Malformed";
  static const std::string kEpoch = "{\"epoch\":";
  if (response.compare(0, kEpoch.size(), kEpoch) == 0) {
    rec->epoch = std::strtoll(response.c_str() + kEpoch.size(), nullptr, 10);
  }
}

/// The fleet-wide persistent-prev-day endpoint, version 1: what the
/// weekly pass deploys for every region.
Result<ModelEndpoint> ChampionEndpoint() {
  PersistentForecast model(PersistentVariant::kPreviousDay);
  SEAGULL_ASSIGN_OR_RETURN(Json serialized, model.Serialize());
  Json doc = Json::MakeObject();
  doc["family"] = "persistent_prev_day";
  doc["version"] = 1;
  Json models = Json::MakeObject();
  models[""] = std::move(serialized);
  doc["models"] = std::move(models);
  return ModelEndpoint::FromVersionDoc(doc);
}

std::string ServerOf(const std::string& body) {
  auto doc = Json::Parse(body);
  if (!doc.ok() || !(*doc)["server_id"].is_string()) return "";
  return (*doc)["server_id"].AsString();
}

}  // namespace

struct ServingSession::Step {
  double rate = 0.0;
  double seconds = 0.0;
  std::vector<ScheduledRequest> requests;
  std::vector<int64_t> due;  ///< step-relative due times, ns
};

struct ServingSession::StepResult {
  std::vector<Record> recs;
  std::vector<TickRecord> ticks;
  /// (request index, response) pairs kept for the JSON layer probes.
  std::vector<std::pair<size_t, std::string>> samples;
  int64_t t0 = 0;  ///< absolute NowNs of the step origin
};

ServingSession::ServingSession(uint64_t seed,
                               std::vector<ServerTelemetry> tails, int workers)
    : seed_(seed),
      workers_(workers),
      tails_(std::move(tails)) {
  for (const auto& st : tails_) {
    ids_.push_back(st.server_id);
    tails_end_ = std::max(tails_end_, st.load.end());
  }
}

ServingSession::~ServingSession() { Release(); }

void ServingSession::Release() { engine_.reset(); }

LoadgenOptions ServingSession::StepOptions(double rate, int64_t ticks,
                                           uint64_t step_seed,
                                           MinuteStamp epoch_start) const {
  LoadgenOptions options;
  options.profile = LoadProfile::kSoak;
  options.mode = DriverMode::kOpenLoop;
  options.seed = step_seed;
  options.ticks = ticks;
  options.base_requests_per_tick = std::max<int64_t>(
      1, std::llround(rate * kSchedTickMs / 1e3));
  options.predict_fraction = kPredictShare;
  options.ll_window_fraction = kLlWindowShare;
  options.batch_fraction = kBatchShare;
  options.batch_size = kBatchSize;
  options.subscribe_fraction = kSubscribeShare;
  options.epoch_start = epoch_start;
  options.jobs = 1;
  return options;
}

ServingSession::Step ServingSession::BuildStep(double rate, double seconds,
                                               uint64_t step_seed) {
  const int64_t ticks = std::max<int64_t>(
      1, std::llround(seconds * 1e3 / kSchedTickMs));
  const LoadgenOptions options =
      StepOptions(rate, ticks, step_seed, epoch_cursor_);
  Step step;
  step.rate = rate;
  step.seconds = static_cast<double>(ticks) * kSchedTickMs / 1e3;
  step.requests = BuildSchedule(options, ids_);
  // Within an epoch the schedule's offsets are sums of exponential gaps
  // sized for the epoch, so they overshoot or fall short of its end by
  // about sqrt(n) gaps. Clamping the overshoot piles those requests up
  // at the epoch's end. Instead every epoch's offsets are scaled so that
  // its n arrivals span n + 1 mean gaps: the arrival times of a Poisson
  // process given n arrivals in the epoch, with no burst or hole at its
  // boundary.
  std::vector<int64_t> count(static_cast<size_t>(ticks), 0);
  std::vector<double> last(static_cast<size_t>(ticks), 0.0);
  for (const auto& req : step.requests) {
    const size_t t = static_cast<size_t>(req.tick);
    ++count[t];
    last[t] = std::max(last[t], static_cast<double>(req.offset_micros));
  }
  const double tick_ns = kSchedTickMs * 1e6;
  for (const auto& req : step.requests) {
    const size_t t = static_cast<size_t>(req.tick);
    const double n = static_cast<double>(count[t]);
    const double span = std::max(last[t] * (n + 1) / n, 1.0);
    const double frac = static_cast<double>(req.offset_micros) / span;
    step.due.push_back(static_cast<int64_t>(
        (static_cast<double>(req.tick) + frac) * tick_ns));
  }
  epoch_cursor_ += ticks * kServerIntervalMinutes;
  return step;
}

Status ServingSession::Setup() {
  Release();
  publish_ns_.clear();
  epoch_cursor_ = tails_end_;
  SEAGULL_ASSIGN_OR_RETURN(ModelEndpoint endpoint, ChampionEndpoint());
  engine_ = std::make_unique<ServingEngine>(std::move(endpoint));
  SEAGULL_RETURN_NOT_OK(engine_->Bootstrap(tails_));
  auto note_publish = [this](const TickResult& tr) {
    if (publish_ns_.size() <= static_cast<size_t>(tr.tick)) {
      publish_ns_.resize(static_cast<size_t>(tr.tick) + 1, 0);
    }
    publish_ns_[static_cast<size_t>(tr.tick)] = NowNs();
  };
  note_publish(engine_->Tick());
  // Warm-up: a short sequential burst through every verb, then a tick
  // that applies its ingests, so the timed steps start hot.
  const Step warm =
      BuildStep(kReferenceRate, kWarmTicks * kSchedTickMs / 1e3,
                seed_ ^ 0x5eedULL);
  for (const auto& req : warm.requests) engine_->Handle(req.body);
  note_publish(engine_->Tick());
  return Status::OK();
}

ServingSession::StepResult ServingSession::RunStep(const Step& step,
                                                   bool traced) {
  StepResult res;
  const size_t n = step.requests.size();
  res.recs.resize(n);
  const int64_t dur_ns = static_cast<int64_t>(step.seconds * 1e9);
  // Overloaded steps stop sending once they overrun by their own
  // length (at least 1 s); what is left is shed, not sent.
  const int64_t cutoff = dur_ns + std::max<int64_t>(dur_ns, 1'000'000'000);
  const int64_t period_ns = static_cast<int64_t>(kTickPeriodMs * 1e6);
  std::atomic<size_t> next{0};
  std::atomic<bool> done{false};
  std::vector<std::vector<std::pair<size_t, std::string>>> samples(
      static_cast<size_t>(workers_));
  res.t0 = NowNs() + 2'000'000;
  const int64_t t0 = res.t0;

  // Free workers all watch the next unsent request and the first to
  // see its due time pass sends it, so a worker that the host
  // deschedules while it waits delays no request.
  auto worker = [&](int w) {
    TightenTimerSlack();
    int64_t free = t0;
    for (;;) {
      size_t i = next.load(std::memory_order_relaxed);
      if (i >= n) return;
      const int64_t due = t0 + step.due[i];
      for (int64_t now = NowNs(); now < due; now = NowNs()) {
        if (next.load(std::memory_order_relaxed) != i) break;
        if (due - now > kWorkerSpinNs) {
          std::this_thread::sleep_for(
              std::chrono::nanoseconds(due - now - kWorkerSpinNs));
        }
      }
      if (NowNs() < due ||
          !next.compare_exchange_strong(i, i + 1, std::memory_order_relaxed)) {
        continue;
      }
      const int64_t start = NowNs();
      if (start - t0 > cutoff) {
        next.store(n, std::memory_order_relaxed);
        return;
      }
      std::string response = engine_->Handle(step.requests[i].body);
      const int64_t end = NowNs();
      Record& rec = res.recs[i];
      rec.free = free - t0;
      rec.start = start - t0;
      rec.end = end - t0;
      rec.sent = true;
      Classify(response, &rec);
      if (traced && i % 7 == 0) {
        samples[static_cast<size_t>(w)].emplace_back(i, std::move(response));
      }
      free = end;
    }
  };
  auto ticker = [&] {
    TightenTimerSlack();
    for (int64_t k = 1;; ++k) {
      const bool last = done.load(std::memory_order_acquire);
      WaitUntil(t0 + k * period_ns);
      TickRecord tick;
      tick.start = NowNs() - t0;
      tick.result = engine_->Tick();
      tick.end = NowNs() - t0;
      tick.result.notifications.clear();
      res.ticks.push_back(std::move(tick));
      if (last) return;
    }
  };

  std::thread tick_thread(ticker);
  std::vector<std::thread> threads;
  for (int w = 1; w < workers_; ++w) threads.emplace_back(worker, w);
  // `Handle` and `Tick` do not throw; an allocation failure here still
  // has to stop and join the other threads before it propagates.
  std::exception_ptr failure;
  try {
    worker(0);
  } catch (...) {
    failure = std::current_exception();
    next.store(n, std::memory_order_relaxed);
  }
  for (auto& t : threads) t.join();
  done.store(true, std::memory_order_release);
  tick_thread.join();
  if (failure) std::rethrow_exception(failure);

  for (const TickRecord& tick : res.ticks) {
    const size_t epoch = static_cast<size_t>(tick.result.tick);
    if (publish_ns_.size() <= epoch) publish_ns_.resize(epoch + 1, 0);
    publish_ns_[epoch] = t0 + tick.end;
  }
  for (auto& worker_samples : samples) {
    for (auto& sample : worker_samples) res.samples.push_back(std::move(sample));
  }
  return res;
}

namespace {

/// Latencies (us, from the due time) of one verb's sent requests.
std::vector<double> LatencyUs(const std::vector<ScheduledRequest>& requests,
                              const std::vector<int64_t>& due,
                              const std::vector<Record>& recs,
                              const std::string& verb) {
  std::vector<double> out;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (requests[i].verb != verb || !recs[i].sent) continue;
    out.push_back(static_cast<double>(recs[i].end - due[i]) / 1e3);
  }
  return out;
}

/// Quantile `q` of one verb's latencies over a whole step, timed from
/// the due time; with `failed_miss` a failed request is a miss.
double StepQuantile(const std::vector<ScheduledRequest>& requests,
                    const std::vector<int64_t>& due,
                    const std::vector<Record>& recs, const std::string& verb,
                    double q, bool failed_miss = false) {
  std::vector<double> lat;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (requests[i].verb != verb || !recs[i].sent) continue;
    lat.push_back(recs[i].ok || !failed_miss
                      ? static_cast<double>(recs[i].end - due[i]) / 1e3
                      : kMiss);
  }
  return Quantile(&lat, q);
}

/// Service time (us) of one verb's requests: send to response.
std::vector<double> HandleUs(const std::vector<ScheduledRequest>& requests,
                             const std::vector<Record>& recs,
                             const std::string& verb) {
  std::vector<double> out;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (requests[i].verb != verb || !recs[i].sent) continue;
    out.push_back(static_cast<double>(recs[i].end - recs[i].start) / 1e3);
  }
  return out;
}

/// Generator lateness (us): how long after it could have gone out (its
/// due time, or later if its worker was busy until then) a request
/// went.
std::vector<double> LateUs(const std::vector<int64_t>& due,
                           const std::vector<Record>& recs) {
  std::vector<double> out;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (!recs[i].sent) continue;
    out.push_back(static_cast<double>(
                      recs[i].start - std::max(due[i], recs[i].free)) /
                  1e3);
  }
  return out;
}

/// Assigns every applied ingest to the tick that applied it: ticks
/// report how many increments they merged, and ingests are merged in
/// the order their enqueue finished. Returns, per ingest index, the
/// tick index (or -1).
std::vector<int64_t> AssignIngests(
    const std::vector<ScheduledRequest>& requests,
    const std::vector<Record>& recs, const std::vector<TickRecord>& ticks) {
  std::vector<size_t> ingests;
  for (size_t i = 0; i < recs.size(); ++i) {
    if (requests[i].verb == "ingest" && recs[i].sent && recs[i].ok) {
      ingests.push_back(i);
    }
  }
  std::sort(ingests.begin(), ingests.end(), [&](size_t a, size_t b) {
    return recs[a].end < recs[b].end;
  });
  std::vector<int64_t> tick_of(recs.size(), -1);
  size_t cursor = 0;
  for (size_t k = 0; k < ticks.size(); ++k) {
    for (int64_t j = 0;
         j < ticks[k].result.ingests_applied && cursor < ingests.size();
         ++j) {
      tick_of[ingests[cursor++]] = static_cast<int64_t>(k);
    }
  }
  return tick_of;
}

/// Offered rate at which log p99 reaches log `limit_us` on the
/// least-squares line of log p99 against rate through the steps; 0 when
/// there are fewer than two steps or the line does not rise.
double LimitCrossing(const std::vector<double>& rates,
                     const std::vector<double>& p99_us, double limit_us) {
  if (rates.size() < 2) return 0.0;
  const double n = static_cast<double>(rates.size());
  double sx = 0.0, sy = 0.0, sxx = 0.0, sxy = 0.0;
  for (size_t i = 0; i < rates.size(); ++i) {
    const double y = std::log(std::max(p99_us[i], 1.0));
    sx += rates[i];
    sy += y;
    sxx += rates[i] * rates[i];
    sxy += rates[i] * y;
  }
  const double var = sxx - sx * sx / n;
  const double slope = var > 0.0 ? (sxy - sx * sy / n) / var : 0.0;
  if (slope <= 0.0) return 0.0;
  return (std::log(limit_us) - (sy - slope * sx) / n) / slope;
}

}  // namespace

void ServingSession::Run(double seconds, bool traced, Ledger* ledger,
                         ServingOutcome* outcome) {
  // Only the reference schedule is counted in attempted / failed: its
  // requests are fixed by the seed and all sent, while how many ladder
  // rungs run depends on the host.
  auto account = [&](const Step& step, const StepResult& res, bool counted) {
    std::vector<double> late = LateUs(step.due, res.recs);
    const double late_p99 = Quantile(&late, 0.99);
    outcome->gen_late_p99_us = std::max(outcome->gen_late_p99_us, late_p99);
    if (late_p99 > kGeneratorLateLimitUs) outcome->generator_ok = false;
    for (size_t i = 0; i < res.recs.size(); ++i) {
      const Record& rec = res.recs[i];
      if (!rec.sent) {
        ++outcome->shed;
        continue;
      }
      if (!counted) continue;
      ++outcome->attempted;
      if (!rec.ok) {
        ++outcome->failed;
        ++outcome->failures[step.requests[i].verb + " " + rec.code];
      }
    }
  };
  const uint64_t base_seed = RefSeed();
  if (traced) {
    // Both halves draw the same schedule, so the overhead compares the
    // same requests with and without the layer probes' bookkeeping.
    const Step plain =
        BuildStep(kReferenceRate, seconds / 2, base_seed);
    const StepResult plain_res = RunStep(plain, false);
    account(plain, plain_res, true);
    // A fresh engine, so that the traced half also starts from the same
    // state and simulated time.
    if (!Setup().ok()) return;
    const Step step = BuildStep(kReferenceRate, seconds / 2, base_seed);
    const StepResult res = RunStep(step, true);
    account(step, res, true);
    LayerMetrics(plain, plain_res, step, res, ledger);
    return;
  }

  const Step ref =
      BuildStep(kReferenceRate, seconds * kReferenceShare, base_seed);
  const StepResult ref_res = RunStep(ref, false);
  account(ref, ref_res, true);
  ledger->Set("predict_p50_us",
              StepQuantile(ref.requests, ref.due, ref_res.recs, "predict", 0.5),
              "us");
  // Freshness: ingest due time to the end of the tick that applied it.
  const std::vector<int64_t> tick_of =
      AssignIngests(ref.requests, ref_res.recs, ref_res.ticks);
  std::vector<double> fresh;
  for (size_t i = 0; i < tick_of.size(); ++i) {
    if (tick_of[i] < 0) continue;
    fresh.push_back(static_cast<double>(
                        ref_res.ticks[static_cast<size_t>(tick_of[i])].end -
                        ref.due[i]) /
                    1e6);
  }
  ledger->Set("freshness_p99_ms", Quantile(&fresh, 0.99), "ms");

  // Goodput: the offered rate at which predict p99 (failed predicts are
  // misses) reaches the limit, times the reference step's success share.
  // Each ladder rung gives p99 at its rate; the climb stops after the
  // first rung past `kLadderStopFactor` times the limit or with a growing
  // backlog. Between the service-time floor and capacity the p99 grows
  // about exponentially with the rate (waits behind batch predicts get
  // more common), and a single rung's p99 is noisy (a 1-2 s rung holds a
  // few dozen batch collisions), so the rate comes from the line of log
  // p99 against rate through every rung, the stopping one capped at the
  // stop threshold, rather than from the two rungs around the limit. It
  // moves smoothly with capacity.
  std::vector<double> rates, p99s;
  auto judge = [&](const Step& step, const StepResult& res) {
    const double p99 = StepQuantile(step.requests, step.due, res.recs,
                                    "predict", 0.99, /*failed_miss=*/true);
    const size_t n = res.recs.size();
    const size_t q = std::max<size_t>(1, n / 4);
    double lag_first = 0.0, lag_last = 0.0;
    int64_t unsent = 0;
    std::map<std::string, int64_t> errs;
    for (size_t i = 0; i < n; ++i) {
      const Record& rec = res.recs[i];
      if (!rec.sent) {
        ++unsent;
        continue;
      }
      if (!rec.ok) ++errs[step.requests[i].verb + " " + rec.code];
      const double lag = static_cast<double>(rec.start - step.due[i]);
      if (i < q) lag_first += lag / static_cast<double>(q);
      if (i >= n - q) lag_last += lag / static_cast<double>(q);
    }
    const bool backlog_grows = unsent > 0 || lag_last - lag_first > 1e6;
    const double stop = kLadderStopFactor * kPredictP99LimitUs;
    if (step.rate > kReferenceRate) {
      rates.push_back(step.rate);
      p99s.push_back(backlog_grows ? stop : std::min(p99, stop));
    }
    outcome->step_notes.push_back(StringPrintf(
        "rate %.0f/s: %zu requests, predict p99 %.0f us, start lag %.0f -> "
        "%.0f us, backlog %s",
        step.rate, n, p99, lag_first / 1e3, lag_last / 1e3,
        backlog_grows ? "grows" : "steady"));
    for (const auto& [key, count] : errs) {
      outcome->step_notes.back() +=
          StringPrintf(", %s x%lld", key.c_str(), static_cast<long long>(count));
    }
    return backlog_grows || p99 > stop;
  };
  bool past = judge(ref, ref_res);
  for (size_t k = 0; k < std::size(kLadder) && !past; ++k) {
    // Every rung starts from a fresh engine at the reference step's
    // simulated start: a request's cost follows the simulated clock (a
    // predict renders less of a forecast that has aged), and after the
    // reference step's simulated hours a predict cost half as much.
    if (!Setup().ok()) break;
    const Step step = BuildStep(kLadder[k], seconds * kRungShare,
                                base_seed + 1 + k);
    const StepResult res = RunStep(step, false);
    account(step, res, false);
    past = judge(step, res);
  }
  const double crossing = LimitCrossing(rates, p99s, kPredictP99LimitUs);
  const double ok_share =
      outcome->attempted > 0
          ? static_cast<double>(outcome->attempted - outcome->failed) /
                static_cast<double>(outcome->attempted)
          : 0.0;
  outcome->step_notes.push_back(
      StringPrintf("predict p99 crosses %.0f us at %.0f/s",
                   kPredictP99LimitUs, crossing));
  ledger->Set("goodput_rps", crossing * ok_share, "1/s");
}

void ServingSession::LayerMetrics(const Step& plain,
                                  const StepResult& plain_res,
                                  const Step& step, const StepResult& res,
                                  Ledger* ledger) {
  std::vector<double> predict =
      LatencyUs(plain.requests, plain.due, plain_res.recs, "predict");
  std::vector<double> traced_predict =
      LatencyUs(step.requests, step.due, res.recs, "predict");
  const double untraced_p50 = Quantile(&predict, 0.5);
  ledger->Set("trace.serving_overhead_frac",
              untraced_p50 > 0
                  ? (Quantile(&traced_predict, 0.5) - untraced_p50) /
                        untraced_p50
                  : 0.0,
              "ratio");
  for (const char* verb :
       {"predict", "batch_predict", "ll_window", "ingest", "subscribe_ll"}) {
    std::vector<double> handle = HandleUs(step.requests, res.recs, verb);
    const std::string base = std::string("serving.handle_us.") + verb;
    ledger->Set(base + ".p50", Quantile(&handle, 0.5), "us");
    ledger->Set(base + ".p99", Quantile(&handle, 0.99), "us");
  }
  // The p99s from the due time. They followed the host's state about
  // twice as much as the p50 between runs minutes apart (up to 2x for
  // the ~10 us verbs), so they are reported here, unbounded, rather
  // than as end-to-end metrics.
  for (const char* verb : {"predict", "batch_predict", "ll_window", "ingest"}) {
    ledger->Set(std::string(verb) + "_p99_us",
                StepQuantile(step.requests, step.due, res.recs, verb, 0.99),
                "us");
  }
  std::vector<double> late = LateUs(step.due, res.recs);
  ledger->Set("gen.late_p99_us", Quantile(&late, 0.99), "us");

  // JSON layer, on the kept request/response pairs: parse of the
  // request body, and Dump() of the response DOM (built untimed).
  std::vector<double> parse_us, dump_us;
  for (const auto& [i, response] : res.samples) {
    int64_t t0 = NowNs();
    auto request = Json::Parse(step.requests[i].body);
    parse_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    auto dom = Json::Parse(response);
    if (!request.ok() || !dom.ok()) continue;
    t0 = NowNs();
    const std::string text = dom->Dump();
    dump_us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (text.empty()) dump_us.back() = kMiss;
  }
  std::vector<double> bytes;
  for (const Record& rec : res.recs) {
    if (rec.sent) bytes.push_back(static_cast<double>(rec.bytes));
  }
  ledger->Set("json.parse_us", Mean(parse_us), "us");
  ledger->Set("json.dump_us", Mean(dump_us), "us");
  ledger->Set("json.response_bytes", Mean(bytes), "bytes");

  // Tick layer.
  std::vector<double> tick_ms, refits, clean, applied;
  double refit_ns = 0.0;
  int64_t refit_total = 0, shared_total = 0;
  for (const TickRecord& tick : res.ticks) {
    const double ms = static_cast<double>(tick.end - tick.start) / 1e6;
    tick_ms.push_back(ms);
    refits.push_back(static_cast<double>(tick.result.refits));
    clean.push_back(static_cast<double>(tick.result.clean_skips));
    applied.push_back(static_cast<double>(tick.result.ingests_applied));
    if (tick.result.refits > 0) {
      refit_ns += ms * 1e6;
      refit_total += tick.result.refits;
      shared_total += tick.result.batch_shared;
    }
  }
  ledger->Set("serving.tick_ms.p50", Median(tick_ms), "ms");
  ledger->Set("serving.tick_ms.max", Max(tick_ms), "ms");
  ledger->Set("serving.tick.refits", Mean(refits), "count");
  ledger->Set("serving.tick.clean_skips", Mean(clean), "count");
  ledger->Set("serving.tick.ingests_applied", Mean(applied), "count");
  ledger->Set("serving.refit_us_per_server",
              refit_total > 0 ? refit_ns / 1e3 / refit_total : 0.0, "us");
  ledger->Set("forecast.batch_shared_ratio",
              refit_total > 0 ? static_cast<double>(shared_total) /
                                    static_cast<double>(refit_total)
                              : 0.0,
              "ratio");
  std::vector<double> age_ms;
  for (const Record& rec : res.recs) {
    if (rec.epoch < 0 || static_cast<size_t>(rec.epoch) >= publish_ns_.size())
      continue;
    const int64_t published = publish_ns_[static_cast<size_t>(rec.epoch)];
    age_ms.push_back(
        std::max<double>(0.0, static_cast<double>(res.t0 + rec.end -
                                                  published) /
                                  1e6));
  }
  ledger->Set("serving.served_epoch_age_ms", Quantile(&age_ms, 0.99), "ms");

  // Forecast layer: the bench's own BatchTrainer::Fit over copies of
  // the dirty tails of the tick with the median refit count.
  const std::vector<int64_t> tick_of =
      AssignIngests(step.requests, res.recs, res.ticks);
  std::vector<std::pair<int64_t, size_t>> by_refits;
  for (size_t k = 0; k < res.ticks.size(); ++k) {
    if (res.ticks[k].result.refits > 0) {
      by_refits.emplace_back(res.ticks[k].result.refits, k);
    }
  }
  double fit_us = 0.0;
  if (!by_refits.empty()) {
    std::sort(by_refits.begin(), by_refits.end());
    const size_t tick = by_refits[by_refits.size() / 2].second;
    std::unordered_map<std::string, const LoadSeries*> tail_of;
    for (const auto& st : tails_) tail_of[st.server_id] = &st.load;
    std::map<std::string, const LoadSeries*> dirty;
    for (size_t i = 0; i < tick_of.size(); ++i) {
      if (tick_of[i] != static_cast<int64_t>(tick)) continue;
      auto it = tail_of.find(ServerOf(step.requests[i].body));
      if (it != tail_of.end()) dirty[it->first] = it->second;
    }
    std::vector<BatchTrainItem> items;
    for (const auto& [id, tail] : dirty) items.push_back({tail});
    if (!items.empty()) {
      const std::string model = engine_->endpoint().family();
      const int64_t t0 = NowNs();
      auto fits = BatchTrainer::Fit(model, items, nullptr);
      fit_us = static_cast<double>(NowNs() - t0) / 1e3 /
               static_cast<double>(items.size());
      if (!fits.ok()) fit_us = kMiss;
    }
  }
  ledger->Set("forecast.fit_us", fit_us, "us");
}

Result<uint64_t> ServingSession::ReplayDigest(int refit_threads) {
  SEAGULL_ASSIGN_OR_RETURN(ModelEndpoint endpoint, ChampionEndpoint());
  std::unique_ptr<ThreadPool> pool;
  ServingOptions options;
  if (refit_threads > 0) {
    pool = std::make_unique<ThreadPool>(refit_threads);
    options.pool = pool.get();
  }
  // The reference step follows the warm-up epochs; for a soak profile
  // the first ticks of a longer schedule equal a shorter one's.
  const LoadgenOptions replay =
      StepOptions(kReferenceRate, kGateTicks, RefSeed(),
                  tails_end_ + kWarmTicks * kServerIntervalMinutes);
  ScopedFrozenClock frozen(0);
  ServingEngine engine(std::move(endpoint), options);
  SEAGULL_RETURN_NOT_OK(engine.Bootstrap(tails_));
  engine.Tick();
  const LoadgenReport report =
      RunLoadTest(&engine, replay, BuildSchedule(replay, ids_));
  return report.response_digest;
}

}  // namespace perfbench
